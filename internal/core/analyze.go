package core

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/quorum"
)

// Result carries the probabilistic guarantees of one deployment: the
// probabilities that the deployment is safe, live, and both — the three
// percentage columns of Table 1 (Table 2 reports only SafeAndLive because
// majority-quorum Raft is safe in every crash configuration).
type Result struct {
	Safe        float64
	Live        float64
	SafeAndLive float64
}

// Nines returns the safe-and-live probability as nines of reliability.
func (r Result) Nines() float64 { return dist.Nines(r.SafeAndLive) }

// String renders in the paper's percent style.
func (r Result) String() string {
	return fmt.Sprintf("safe %s, live %s, safe&live %s",
		dist.FormatPercent(r.Safe, 2), dist.FormatPercent(r.Live, 2),
		dist.FormatPercent(r.SafeAndLive, 2))
}

// Analyze computes the exact Result for a fleet under a count-based
// protocol model with one count-region pass over the fleet: at most
// O(N^2) per node, far less for the textbook sizings; exact for
// heterogeneous fleets of any composition. It runs on a throwaway
// Evaluator; callers on a hot path should hold a long-lived Evaluator (or
// EvaluatorPool) and reuse its workspaces.
func Analyze(fleet Fleet, m CountModel) (Result, error) {
	var e Evaluator
	return e.Analyze(fleet, m)
}

// MustAnalyze is Analyze for statically correct inputs (tables, benches);
// it panics on error.
func MustAnalyze(fleet Fleet, m CountModel) Result {
	r, err := Analyze(fleet, m)
	if err != nil {
		panic(err)
	}
	return r
}

// SetPredicate decides a property from the identity of faulty nodes, not
// just their count. It enables reliability-aware analyses (experiment E3)
// and arbitrary quorum-system predicates.
type SetPredicate func(crashed, byz quorum.Set) bool

// EnumerateConfigs visits every failure configuration of the fleet — each
// node correct, crashed, or Byzantine — together with its probability.
// 3^N configurations: practical for N <= 16, and the ground truth the other
// engines are validated against.
func EnumerateConfigs(fleet Fleet, visit func(crashed, byz quorum.Set, prob float64)) error {
	if err := fleet.Validate(); err != nil {
		return err
	}
	n := len(fleet)
	if n > 20 {
		return fmt.Errorf("core: EnumerateConfigs is 3^N; N=%d too large (max 20)", n)
	}
	crashed := quorum.NewSet(n)
	byz := quorum.NewSet(n)
	var rec func(i int, prob float64)
	rec = func(i int, prob float64) {
		if prob == 0 {
			return
		}
		if i == n {
			visit(crashed, byz, prob)
			return
		}
		p := fleet[i].Profile
		rec(i+1, prob*p.TriState().PCorrect())
		crashed.Add(i)
		rec(i+1, prob*p.PCrash)
		crashed.Remove(i)
		byz.Add(i)
		rec(i+1, prob*p.PByz)
		byz.Remove(i)
	}
	rec(0, 1)
	return nil
}

// AnalyzeSet computes exact probabilities for set-valued safety and
// liveness predicates by full enumeration.
func AnalyzeSet(fleet Fleet, safe, live SetPredicate) (Result, error) {
	var sSafe, sLive, sBoth dist.KahanSum
	err := EnumerateConfigs(fleet, func(crashed, byz quorum.Set, prob float64) {
		s := safe(crashed, byz)
		l := live(crashed, byz)
		if s {
			sSafe.Add(prob)
		}
		if l {
			sLive.Add(prob)
		}
		if s && l {
			sBoth.Add(prob)
		}
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Safe:        dist.Clamp01(sSafe.Sum()),
		Live:        dist.Clamp01(sLive.Sum()),
		SafeAndLive: dist.Clamp01(sBoth.Sum()),
	}, nil
}

// CountPredicates adapts a CountModel to set predicates, for
// cross-validation of the enumeration engine against the DP engine.
func CountPredicates(m CountModel) (safe, live SetPredicate) {
	safe = func(crashed, byz quorum.Set) bool { return m.Safe(crashed.Count(), byz.Count()) }
	live = func(crashed, byz quorum.Set) bool { return m.Live(crashed.Count(), byz.Count()) }
	return safe, live
}

// MCResult is a Monte-Carlo estimate with sampling error.
type MCResult struct {
	Result
	Samples int
	// CI95 half-widths (Wilson) for each probability.
	SafeLo, SafeHi float64
	LiveLo, LiveHi float64
	BothLo, BothHi float64
}

// AnalyzeMonteCarlo estimates the Result of an independent fleet by
// sampling failure configurations. It works for any fleet size and — unlike
// the exact engines — composes with arbitrary sampling processes. It is
// AnalyzeDomainsMonteCarlo with no domains: the same draws in the same
// order, and the same rejection of a node that names a domain.
func AnalyzeMonteCarlo(fleet Fleet, m CountModel, samples int, seed int64) (MCResult, error) {
	return AnalyzeDomainsMonteCarlo(fleet, m, nil, samples, seed)
}
