package graph

import "fmt"

// maxLatticeSide is the largest side whose side*side vertex IDs fit
// in int32.
const maxLatticeSide = 46340

// Lattice returns the side×side 4-neighbour grid as an undirected CSR:
// vertex r*side+c links to its right and lower neighbours (and back).
// It is the high-diameter counterpoint to R-MAT's low-diameter skew —
// 2(side-1) levels from a corner, every frontier tiny — the family
// where direction switching never pays off.
func Lattice(side int) (*CSR, error) {
	if side < 1 || side > maxLatticeSide {
		return nil, fmt.Errorf("graph: lattice side %d outside [1, %d]", side, maxLatticeSide)
	}
	n := side * side                       //lint:narrow-ok side <= maxLatticeSide
	edges := make([]Edge, 0, 2*(n-side))   //lint:narrow-ok side <= maxLatticeSide
	for v := int32(0); v < int32(n); v++ { //lint:narrow-ok n <= MaxInt32
		if c := int(v) % side; c+1 < side {
			edges = append(edges, Edge{From: v, To: v + 1})
		}
		if int(v)+side < n {
			edges = append(edges, Edge{From: v, To: v + int32(side)}) //lint:narrow-ok side <= maxLatticeSide
		}
	}
	return Build(n, edges, BuildOptions{Symmetrize: true})
}
