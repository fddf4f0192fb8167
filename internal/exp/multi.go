package exp

import (
	"fmt"

	"crossbfs/internal/archsim"
	"crossbfs/internal/core"
)

// MultiCoprocessorRow is one point of the Tianhe-2 extension: the
// cross-architecture combination with k coprocessors.
type MultiCoprocessorRow struct {
	Coprocessors int
	Kind         string
	GTEPS        float64
	SpeedupOver1 float64
}

// MultiCoprocessorScaling extends the paper (§I motivates Tianhe-2's
// three Xeon Phis per node; the evaluation uses one coprocessor) by
// sweeping 1..maxK coprocessors of the given kind on the default
// workload.
func MultiCoprocessorScaling(cfg Config, kind archsim.Kind, maxK int) ([]MultiCoprocessorRow, error) {
	cfg.setDefaults()
	if maxK <= 0 {
		maxK = 3
	}
	_, tr, _, err := cfg.workload()
	if err != nil {
		return nil, err
	}
	cpu := archsim.SandyBridge()
	var cop archsim.Arch
	switch kind {
	case archsim.GPU:
		cop = archsim.KeplerK20x()
	case archsim.MIC:
		cop = archsim.KnightsCorner()
	default:
		return nil, fmt.Errorf("exp: coprocessor kind must be GPU or MIC, got %s", kind)
	}

	boundary, err := tunedCross(tr, cpu, cop, cfg.Link)
	if err != nil {
		return nil, err
	}

	var rows []MultiCoprocessorRow
	var base float64
	for k := 1; k <= maxK; k++ {
		cops := make([]archsim.Arch, k)
		for i := range cops {
			cops[i] = cop
		}
		// M2 = N2 = 300 pushes the switch to bottom-up as early as the
		// paper's search range allows, routing the scan-heavy levels
		// to the coprocessors — the phase partitioning accelerates.
		// With launch-bound mid levels (small default scales) the
		// sweep otherwise measures only per-device launch overhead.
		timing, err := core.Price(tr, core.MultiCross{
			Host: cpu, Coprocessors: cops,
			M1: boundary.M1, N1: boundary.N1, M2: 300, N2: 300,
		}, core.PriceOptions{Link: cfg.Link})
		if err != nil {
			return nil, err
		}
		if k == 1 {
			base = timing.Total
		}
		rows = append(rows, MultiCoprocessorRow{
			Coprocessors: k,
			Kind:         kind.String(),
			GTEPS:        timing.GTEPS(),
			SpeedupOver1: base / timing.Total,
		})
	}
	return rows, nil
}
