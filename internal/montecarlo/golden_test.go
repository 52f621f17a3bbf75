package montecarlo_test

import (
	"testing"

	"repro/internal/service"
)

// TestServedTailGolden replays the /v1/tail fixture recorded in
// EXPERIMENTS.md ("Deep-tail serving": raft N=5, p_u = 2e-4, not_live,
// forced importance, seed 3) through the serving layer and compares with
// ==: the sampler's numbers are part of the repo's record, and a kernel
// change that moves any of them has changed the estimator, not just its
// speed. (An external test package because internal/service imports this
// one.)
func TestServedTailGolden(t *testing.T) {
	p := 0.0002
	resp, err := service.New(service.Options{}).Tail(service.TailRequest{
		Model:   service.ModelSpec{Protocol: "raft", N: 5},
		P:       &p,
		Event:   service.EventNotLive,
		Method:  service.MethodImportance,
		MaxWork: 1_000_000,
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.P != 8.039696781785104e-11 || resp.Samples != 200_000 || int(resp.EffectiveSamples) != 62841 {
		t.Errorf("p=%v samples=%d ess=%v, want the recorded p=8.039696781785104e-11 samples=200000 ess=62841",
			resp.P, resp.Samples, resp.EffectiveSamples)
	}
}
