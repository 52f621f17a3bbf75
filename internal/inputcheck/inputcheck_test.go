package inputcheck

import (
	"math"
	"testing"
)

// TestChecks pins every validator at its boundaries and on the non-finite
// inputs a flag or a JSON body can carry (NaN, ±Inf, −0), with the exact
// message: the daemon's 400 bodies and the three CLIs print these strings.
// An empty want means the input is accepted.
func TestChecks(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"size 1", CheckClusterSize(1), ""},
		{"size max", CheckClusterSize(MaxClusterSize), ""},
		{"size 0", CheckClusterSize(0), "cluster size must be >= 1, got 0"},
		{"size -3", CheckClusterSize(-3), "cluster size must be >= 1, got -3"},
		{"size max+1", CheckClusterSize(MaxClusterSize + 1), "cluster size 1025 exceeds maximum 1024"},

		{"prob 0", CheckProb("p", 0), ""},
		{"prob -0", CheckProb("p", negZero), ""},
		{"prob 1", CheckProb("p", 1), ""},
		{"prob below", CheckProb("p", -1e-300), "p must be a probability in [0, 1], got -1e-300"},
		{"prob above", CheckProb("p_byz", math.Nextafter(1, 2)), "p_byz must be a probability in [0, 1], got 1.0000000000000002"},
		{"prob NaN", CheckProb("p", nan), "p must be a probability in [0, 1], got NaN"},
		{"prob +Inf", CheckProb("p", inf), "p must be a probability in [0, 1], got +Inf"},
		{"prob -Inf", CheckProb("p", -inf), "p must be a probability in [0, 1], got -Inf"},

		{"profile zero", CheckProfile(0, negZero), ""},
		{"profile full", CheckProfile(0.5, 0.5), ""},
		{"profile crash first", CheckProfile(2, nan), "p_crash must be a probability in [0, 1], got 2"},
		{"profile byz", CheckProfile(0.1, nan), "p_byz must be a probability in [0, 1], got NaN"},
		{"profile overfull", CheckProfile(0.75, 0.5), "p_crash + p_byz must be <= 1, got 0.75 + 0.5"},

		{"domains 0", CheckDomainCount(0), ""},
		{"domains max", CheckDomainCount(MaxDomains), ""},
		{"domains -1", CheckDomainCount(-1), "domain count must be in [0, 16], got -1"},
		{"domains max+1", CheckDomainCount(MaxDomains + 1), "domain count must be in [0, 16], got 17"},

		{"multiplier 0", CheckShockMultiplier("crash_multiplier", 0), ""},
		{"multiplier -0", CheckShockMultiplier("crash_multiplier", negZero), ""},
		{"multiplier huge", CheckShockMultiplier("crash_multiplier", math.MaxFloat64), ""},
		{"multiplier negative", CheckShockMultiplier("crash_multiplier", -1), "crash_multiplier must be a finite multiplier >= 0, got -1"},
		{"multiplier NaN", CheckShockMultiplier("byz_multiplier", nan), "byz_multiplier must be a finite multiplier >= 0, got NaN"},
		{"multiplier +Inf", CheckShockMultiplier("byz_multiplier", inf), "byz_multiplier must be a finite multiplier >= 0, got +Inf"},
		{"multiplier -Inf", CheckShockMultiplier("byz_multiplier", -inf), "byz_multiplier must be a finite multiplier >= 0, got -Inf"},

		{"count 0 of 0", CheckNodeCount("-upgrade", 0, 0), ""},
		{"count n of n", CheckNodeCount("-upgrade", 5, 5), ""},
		{"count -1", CheckNodeCount("-upgrade", -1, 5), "-upgrade must be in [0, 5], got -1"},
		{"count n+1", CheckNodeCount("-byz", 6, 5), "-byz must be in [0, 5], got 6"},

		{"positive tiny", CheckPositive("-hours", math.SmallestNonzeroFloat64), ""},
		{"positive +Inf", CheckPositive("-hours", inf), ""},
		{"positive 0", CheckPositive("-hours", 0), "-hours must be > 0, got 0"},
		{"positive -0", CheckPositive("-hours", negZero), "-hours must be > 0, got -0"},
		{"positive negative", CheckPositive("-samples", -2), "-samples must be > 0, got -2"},
		{"positive NaN", CheckPositive("-hours", nan), "-hours must be > 0, got NaN"},
		{"positive -Inf", CheckPositive("-hours", -inf), "-hours must be > 0, got -Inf"},

		{"iterations 1", CheckIterations(1), ""},
		{"iterations max", CheckIterations(MaxIterations), ""},
		{"iterations 0", CheckIterations(0), "iterations must be >= 1, got 0"},
		{"iterations max+1", CheckIterations(MaxIterations + 1), "iterations 100001 exceeds maximum 100000"},

		{"budget tiny", CheckBudget("budget", math.SmallestNonzeroFloat64), ""},
		{"budget max", CheckBudget("budget", MaxBudget), ""},
		{"budget 0", CheckBudget("budget", 0), "budget must be > 0, got 0"},
		{"budget -0", CheckBudget("budget", negZero), "budget must be > 0, got -0"},
		{"budget NaN", CheckBudget("-budget", nan), "-budget must be > 0, got NaN"},
		{"budget -Inf", CheckBudget("budget", -inf), "budget must be > 0, got -Inf"},
		{"budget over", CheckBudget("budget", math.Nextafter(MaxBudget, inf)), "budget 1.0000000000000001e+09 exceeds maximum 1e+09"},
		{"budget +Inf", CheckBudget("budget", inf), "budget +Inf exceeds maximum 1e+09"},

		{"non-negative 0", CheckNonNegative("-target", 0), ""},
		{"non-negative -0", CheckNonNegative("-target", negZero), ""},
		{"non-negative +Inf", CheckNonNegative("-target", inf), ""},
		{"non-negative below", CheckNonNegative("-target", -0.5), "-target must be >= 0, got -0.5"},
		{"non-negative NaN", CheckNonNegative("-rate", nan), "-rate must be >= 0, got NaN"},
		{"non-negative -Inf", CheckNonNegative("-rate", -inf), "-rate must be >= 0, got -Inf"},
	}
	for _, tc := range cases {
		got := ""
		if tc.err != nil {
			got = tc.err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, got, tc.want)
		}
	}
}
