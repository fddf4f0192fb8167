// Package crossbfs (in dir faulterr) is the golden test for the
// faulterr analyzer: untyped errors returned across the API boundary.
// The package clause names it crossbfs so the exported-function
// boundary rule applies, mirroring the repo's root package.
package crossbfs

import (
	"context"
	"errors"
	"fmt"
)

// FaultError mirrors fault.Error: the typed kind the ladder switches
// on.
type FaultError struct {
	Device string
	Step   int
	Reason string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("fault on %q at step %d: %s", e.Device, e.Step, e.Reason)
}

// Run is an exported boundary function.
func Run(ctx context.Context, n int) error {
	if n < 0 {
		return errors.New("crossbfs: negative size") // want `untyped errors.New crosses the error boundary \(API boundary Run\)`
	}
	if err := ctx.Err(); err != nil {
		return err // context errors are typed: not flagged
	}
	return run(n)
}

// run is unexported but reachable from Run: its returns surface at the
// boundary unchanged.
func run(n int) error {
	if n > 10 {
		return fmt.Errorf("crossbfs: size %d exceeds budget", n) // want `fmt.Errorf without %w crosses the error boundary \(API boundary Run\)`
	}
	if n == 7 {
		return fmt.Errorf("crossbfs: step failed: %w", step(n)) // %w chain preserves the typed kind: not flagged
	}
	return nil
}

func step(n int) error {
	return &FaultError{Device: "sim", Step: n, Reason: "injected"}
}

// coldHelper is reachable from no boundary: internal plumbing may use
// untyped errors freely.
func coldHelper() error {
	return errors.New("scratch state invalid") // not flagged
}

// Execute is a boundary by name, matching the plan executor entry
// point.
func Execute(n int) error {
	if n == 0 {
		return &FaultError{Device: "cpu", Step: 0, Reason: "crash"} // typed: not flagged
	}
	return fmt.Errorf("resilient replay diverged at step %d", n) // want `fmt.Errorf without %w crosses the error boundary`
}

// ExecuteSharded is a boundary by name, matching the sharded executor
// entry point.
func ExecuteSharded(n int) error {
	if n < 0 {
		return errors.New("no surviving rank") // want `untyped errors.New crosses the error boundary \(API boundary ExecuteSharded\)`
	}
	return shardedHelper(n)
}

// Price is a boundary by name, matching the pricing entry point; its
// reachable helper surfaces untyped errors at the boundary.
func Price(n int) error {
	return shardedHelper(n)
}

func shardedHelper(n int) error {
	if n > 3 {
		return fmt.Errorf("exchange records missing for step %d", n) // want `fmt.Errorf without %w crosses the error boundary`
	}
	if n == 2 {
		return fmt.Errorf("replaying level: %w", step(n)) // %w chain preserves the typed kind: not flagged
	}
	return nil
}

// drainQueue is a boundary by annotation.
//
//lint:boundary
func drainQueue() error {
	return errors.New("queue stalled") // want `untyped errors.New crosses the error boundary \(//lint:boundary drainQueue\)`
}

// Validate shows the reasoned suppression: validation errors mark
// programming mistakes, and callers only test for nil.
func Validate(n int) error {
	if n == 0 {
		return errors.New("crossbfs: zero size") //lint:fault-ok argument validation; callers test nil, never switch on kind
	}
	return nil
}
