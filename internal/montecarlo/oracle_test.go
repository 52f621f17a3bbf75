package montecarlo

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/faultcurve"
)

// The importance sampler as it stood before the table-driven kernel
// (proposal.go), moved here verbatim: every draw re-derives the tilted
// proposal and takes its logarithms afresh. It is the reference the
// kernel must reproduce bit for bit — same generator, same draw order,
// same floating-point operation order — and nothing outside the tests
// calls it.

// refImportanceTri is the historical RunImportanceTri.
func refImportanceTri(profiles []faultcurve.Profile, member []int, domains []faultcurve.Domain,
	tilt TriTilt, pred TriPred, samples int, seed int64) (ImportanceEstimate, error) {
	return refImportanceTriOn(profiles, member, domains, tilt, pred, samples, rand.New(rand.NewSource(seed)))
}

// refImportanceTriOn is refImportanceTri drawing from rng, whatever its
// source.
func refImportanceTriOn(profiles []faultcurve.Profile, member []int, domains []faultcurve.Domain,
	tilt TriTilt, pred TriPred, samples int, rng *rand.Rand) (ImportanceEstimate, error) {
	n := len(profiles)
	if len(member) != n {
		return ImportanceEstimate{}, fmt.Errorf("montecarlo: %d memberships for %d nodes", len(member), n)
	}
	for i, m := range member {
		if m < -1 || m >= len(domains) {
			return ImportanceEstimate{}, fmt.Errorf("montecarlo: node %d references domain %d of %d", i, m, len(domains))
		}
	}
	if samples <= 0 {
		return ImportanceEstimate{}, fmt.Errorf("montecarlo: need samples > 0, got %d", samples)
	}
	if tilt.Boost < 1 {
		tilt.Boost = 1
	}
	if tilt.ShockProb < 0 || tilt.ShockProb >= 1 {
		return ImportanceEstimate{}, fmt.Errorf("montecarlo: shock tilt %v out of [0, 1)", tilt.ShockProb)
	}
	fired := make([]bool, len(domains))
	var sumW, sumW2 float64
	for s := 0; s < samples; s++ {
		logW := 0.0
		for d, dom := range domains {
			q := dom.ShockProb
			qt := q
			if tilt.ShockProb > 0 && q > 0 && q < 1 {
				qt = tilt.ShockProb
			}
			if rng.Float64() < qt {
				fired[d] = true
				logW += math.Log(q) - math.Log(qt)
			} else {
				fired[d] = false
				logW += math.Log1p(-q) - math.Log1p(-qt)
			}
		}
		crashed, byz := 0, 0
		for i := 0; i < n; i++ {
			p := profiles[i]
			if m := member[i]; m >= 0 && fired[m] {
				p = domains[m].Elevate(p)
			}
			pc, pb := p.PCrash, p.PByz
			f := pc + pb
			tc, tb := pc, pb
			if f > 0 && f < MaxTiltMass && tilt.Boost > 1 {
				tf := f * tilt.Boost
				if tf > MaxTiltMass {
					tf = MaxTiltMass
				}
				scale := tf / f
				tc, tb = pc*scale, pb*scale
			}
			switch u := rng.Float64(); {
			case u < tc:
				crashed++
				logW += math.Log(pc) - math.Log(tc)
			case u < tc+tb:
				byz++
				logW += math.Log(pb) - math.Log(tb)
			default:
				logW += math.Log1p(-f) - math.Log1p(-(tc + tb))
			}
		}
		if pred(crashed, byz) {
			w := math.Exp(logW)
			sumW += w
			sumW2 += w * w
		}
	}
	nf := float64(samples)
	mean := sumW / nf
	variance := sumW2/nf - mean*mean
	if variance < 0 {
		variance = 0
	}
	ess := 0.0
	if sumW2 > 0 {
		ess = sumW * sumW / sumW2
	}
	return ImportanceEstimate{
		P:                mean,
		StdErr:           math.Sqrt(variance / nf),
		Samples:          samples,
		EffectiveSamples: ess,
	}, nil
}
