package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"crossbfs/internal/archsim"
	"crossbfs/internal/bfs"
	"crossbfs/internal/fault"
	"crossbfs/internal/graph"
	"crossbfs/internal/obs"
)

// ExecOptions configure Execute and ExecuteSharded. The pricing fields
// mean what they mean in PriceOptions; the replay prices eager
// transfers, on the measured exchanges of a sharded run. Workers is the
// host traversal's parallelism (0 = GOMAXPROCS, 1 = serial kernels; the
// sharded engine's parallelism is its ranks), and Workspace an optional
// reusable workspace, which the returned Result then aliases.
type ExecOptions struct {
	Link                     archsim.Link
	Schedule                 *fault.Schedule
	MaxRetries               int
	RetryBackoff, BackoffCap float64
	Recorder                 obs.Recorder
	TraversalID              uint64
	Workers                  int
	Workspace                *bfs.Workspace
}

// price is the replay's PriceOptions, given a sharded run's exchanges.
func (o ExecOptions) price(exch []bfs.ExchangeStats) PriceOptions {
	return PriceOptions{
		Link: o.Link, Exchanges: exch, Schedule: o.Schedule,
		MaxRetries: o.MaxRetries, RetryBackoff: o.RetryBackoff, BackoffCap: o.BackoffCap,
		Recorder: o.Recorder, TraversalID: o.TraversalID,
	}
}

// scoped draws the execution's TraversalID when telemetry is live and
// returns the real traversal's recorder stamped with it: the real run,
// the priced replay and any escalation are one logical traversal for
// sampling (obs.Sampler) and flight recording (obs.Ring).
func (o *ExecOptions) scoped() obs.Recorder {
	if !obs.Live(o.Recorder) {
		return o.Recorder
	}
	if o.TraversalID == 0 {
		o.TraversalID = obs.NextTraversalID()
	}
	return obs.WithTraversalID(o.TraversalID, o.Recorder)
}

// Execute runs a plan for real: its decisions drive actual BFS kernels
// on the host (a correct, validated predecessor/level map, cancellable
// via ctx) while Price replays the traversal under opts, so faults
// degrade the priced timing, never the result. The recorder receives
// the host traversal's wall-clock events and the priced timeline. The
// error is ctx.Err() verbatim on cancellation, a *fault.Error when the
// modeled execution could not complete, or nil; on any error no result
// is returned. The Trace and Timing survive workspace reuse.
func Execute(ctx context.Context, g *graph.CSR, source int32, plan Plan, opts ExecOptions) (*bfs.Result, *bfs.Trace, *Timing, error) {
	stepper := plan.Begin()
	policy := bfs.PolicyFunc(func(s bfs.StepInfo) bfs.Direction {
		return stepper.Place(s).Dir
	})
	runOpts := bfs.Options{Policy: policy, Workers: opts.Workers, Recorder: opts.scoped(), Label: plan.Name()}
	res, err := bfs.RunWithContext(ctx, g, source, runOpts, opts.Workspace)
	if err != nil {
		return nil, nil, nil, runError(ctx, plan, err)
	}
	tr, timing, err := replay(g, res, plan, opts.price(nil))
	if err != nil {
		return nil, nil, nil, err
	}
	return res, tr, timing, nil
}

// ExecuteSharded runs the partitioned engine for real and prices the
// same traversal on the plan's modeled machine from its per-level work
// and measured exchange volumes. Rank faults in opts.Schedule are
// injected at the engine's exchange seams (crash, lag, dropped
// collectives), survivors recover from per-level checkpoints, and the
// priced replay mirrors the degradation. When the engine gives up —
// every rank dead, or an unrecoverable stall — the traversal escalates
// one more rung: it replans onto a single un-sharded device (the plan's
// Device) via Execute, where device-level faults still apply. Errors
// follow Execute.
func ExecuteSharded(ctx context.Context, g *graph.CSR, source int32, plan ShardedPlan, opts ExecOptions) (*bfs.Result, *Timing, error) {
	if err := plan.Validate(); err != nil {
		return nil, nil, err
	}
	runRec := opts.scoped()
	ft := opts.price(nil).withDefaults()
	eng := bfs.NewShardedEngine(plan.Ranks, plan.M, plan.N)
	eng.SetFaults(opts.Schedule)
	eng.SetFTOptions(bfs.FTOptions{
		MaxRetries:   ft.MaxRetries,
		RetryBackoff: time.Duration(ft.RetryBackoff * float64(time.Second)),
		BackoffCap:   time.Duration(ft.BackoffCap * float64(time.Second)),
	})
	res, err := eng.RunObserved(ctx, g, source, opts.Workspace, runRec)
	var ferr *fault.Error
	switch {
	case err == nil:
	case ctx.Err() != nil || !errors.As(err, &ferr):
		return nil, nil, runError(ctx, plan, err)
	default:
		// Total collapse: no survivor set could finish the sharded
		// traversal. Rank faults cannot follow it onto one device.
		single := SinglePlan{
			PlanName: plan.Name() + "-degraded",
			Arch:     plan.Device,
			Policy:   bfs.MN{M: plan.M, N: plan.N},
		}
		sres, _, timing, serr := Execute(ctx, g, source, single, opts)
		if serr != nil {
			return nil, nil, fmt.Errorf("core: plan %s lost every rank and the fallback failed: %w", plan.Name(), serr)
		}
		timing.Replans++
		timing.Faults = append([]FaultRecord{{
			Step: ferr.Step, Kind: ferr.Kind, Device: ferr.Device,
			Action: "replan",
			Detail: fmt.Sprintf("sharded traversal unrecoverable (%s); replanned onto %s", ferr.Reason, single.PlanName),
		}}, timing.Faults...)
		return sres, timing, nil
	}
	_, timing, err := replay(g, res, plan, opts.price(res.Exchanges))
	if err != nil {
		return nil, nil, err
	}
	return res, timing, nil
}

// runError maps a failed real traversal to the executors' error:
// ctx.Err() verbatim after cancellation, else the engine's error
// wrapped with the plan's name.
func runError(ctx context.Context, plan Plan, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return fmt.Errorf("core: executing plan %s: %w", plan.Name(), err)
}

// replay traces a finished traversal and prices it. The priced
// directions must agree with what actually ran: a mismatch means a
// stateful plan behaved non-deterministically (fault replans move steps
// between devices but never change their direction).
func replay(g *graph.CSR, res *bfs.Result, plan Plan, opts PriceOptions) (*bfs.Trace, *Timing, error) {
	tr, err := bfs.ComputeTrace(g, res)
	if err != nil {
		return nil, nil, fmt.Errorf("core: tracing plan %s: %w", plan.Name(), err)
	}
	timing, err := Price(tr, plan, opts)
	if err != nil {
		return nil, nil, err
	}
	for i, st := range timing.Steps {
		if res.Directions[i] != st.Dir {
			//lint:fault-ok invariant violation (non-deterministic plan), not a modeled fault; nothing to wrap
			return nil, nil, fmt.Errorf("core: plan %s replay diverged at step %d (%s vs %s)",
				plan.Name(), i+1, res.Directions[i], st.Dir)
		}
	}
	return tr, timing, nil
}
