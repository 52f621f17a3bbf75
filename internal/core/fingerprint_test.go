package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faultcurve"
)

func fp(t *testing.T, fleet Fleet, m CountModel) Fingerprint {
	t.Helper()
	f, err := FleetModelDomainsFingerprint(fleet, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFingerprintDeterministic(t *testing.T) {
	fleet := UniformCrashFleet(5, 0.02)
	m := NewRaft(5)
	if fp(t, fleet, m) != fp(t, fleet, m) {
		t.Fatal("same query must fingerprint identically")
	}
}

func TestFingerprintPermutationInvariant(t *testing.T) {
	a := UniformCrashFleet(4, 0.02)
	a[0].Profile = faultcurve.Crash(0.01)
	a[2].Profile = faultcurve.Profile{PCrash: 0.03, PByz: 0.001}

	b := make(Fleet, len(a))
	b[0], b[1], b[2], b[3] = a[2], a[3], a[0], a[1]

	m := NewRaft(4)
	if fp(t, a, m) != fp(t, b, m) {
		t.Fatal("fingerprint must be invariant under node permutation")
	}
	// Sanity: the Results really are permutation-invariant too.
	ra := MustAnalyze(a, m)
	rb := MustAnalyze(b, m)
	if ra != rb {
		t.Fatal("Analyze itself should be permutation-invariant")
	}
}

func TestFingerprintIgnoresNamesAndCost(t *testing.T) {
	a := UniformCrashFleet(3, 0.05)
	b := UniformCrashFleet(3, 0.05)
	for i := range b {
		b[i].Name = "renamed"
		b[i].CostPerHour = 99.0
	}
	if fp(t, a, NewRaft(3)) != fp(t, b, NewRaft(3)) {
		t.Fatal("names and cost must not affect the fingerprint")
	}
}

func TestFingerprintQuantizationFree(t *testing.T) {
	a := UniformCrashFleet(3, 0.01)
	b := UniformCrashFleet(3, 0.01)
	b[0].Profile.PCrash = math.Nextafter(0.01, 1) // 1 ulp apart
	if fp(t, a, NewRaft(3)) == fp(t, b, NewRaft(3)) {
		t.Fatal("1-ulp profile difference must change the fingerprint")
	}
}

// TestFingerprintSignOfZero: -0 passes validation (JSON spells it "-0")
// and is the same probability as 0, so it must be the same key — while
// every other single-bit change to a profile, shock or multiplier still
// yields a different one.
func TestFingerprintSignOfZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	m := NewRaft(4)
	fleet := func(pc, pb float64) Fleet {
		f := UniformByzFleet(4, 0.001)
		f[2].Profile = faultcurve.Profile{PCrash: pc, PByz: pb}
		return f
	}
	base := fp(t, fleet(0, 0), m)
	for _, z := range [][2]float64{{negZero, 0}, {0, negZero}, {negZero, negZero}} {
		if fp(t, fleet(z[0], z[1]), m) != base {
			t.Errorf("profile (%v, %v) fingerprints apart from (0, 0)", z[0], z[1])
		}
	}
	smallest := math.Float64frombits(1)
	for _, z := range [][2]float64{{smallest, 0}, {0, smallest}} {
		if fp(t, fleet(z[0], z[1]), m) == base {
			t.Errorf("profile (%v, %v) aliases (0, 0)", z[0], z[1])
		}
	}

	zoned := func(shock, crashMult, byzMult float64) Fingerprint {
		f, domains := zonedFleet()
		domains[0].ShockProb, domains[0].CrashMultiplier, domains[0].ByzMultiplier = shock, crashMult, byzMult
		return dfp(t, f, NewRaft(6), domains)
	}
	zbase := zoned(0, 0, 0)
	for _, z := range [][3]float64{{negZero, 0, 0}, {0, negZero, 0}, {0, 0, negZero}, {negZero, negZero, negZero}} {
		if zoned(z[0], z[1], z[2]) != zbase {
			t.Errorf("domain (shock %v, multipliers %v/%v) fingerprints apart from all-zero", z[0], z[1], z[2])
		}
	}
	for _, z := range [][3]float64{{smallest, 0, 0}, {0, smallest, 0}, {0, 0, smallest}} {
		if zoned(z[0], z[1], z[2]) == zbase {
			t.Errorf("domain (shock %v, multipliers %v/%v) aliases all-zero", z[0], z[1], z[2])
		}
	}
}

func TestFingerprintSeparatesCrashFromByz(t *testing.T) {
	crash := UniformCrashFleet(4, 0.02)
	byz := UniformByzFleet(4, 0.02)
	m := NewPBFT(1)
	if fp(t, crash, m) == fp(t, byz, m) {
		t.Fatal("crash and Byzantine mass must not be conflated")
	}
}

func TestFingerprintSeparatesModels(t *testing.T) {
	fleet := UniformCrashFleet(4, 0.02)
	raft := Raft{NNodes: 4, QPer: 3, QVC: 3}
	pbft := NewPBFT(1)
	if fp(t, fleet, raft) == fp(t, fleet, pbft) {
		t.Fatal("protocols must fingerprint differently")
	}
	raft2 := Raft{NNodes: 4, QPer: 3, QVC: 4}
	if fp(t, fleet, raft) == fp(t, fleet, raft2) {
		t.Fatal("quorum parameters must be part of the fingerprint")
	}
	pbft2 := pbft
	pbft2.QVCT = 3
	if fp(t, fleet, pbft) == fp(t, fleet, pbft2) {
		t.Fatal("QVCT must be part of the fingerprint")
	}
}

func TestFingerprintRejectsInvalidQueries(t *testing.T) {
	if _, err := FleetModelDomainsFingerprint(UniformCrashFleet(3, 0.01), NewRaft(5), nil); err == nil {
		t.Fatal("size mismatch must be rejected")
	}
	bad := UniformCrashFleet(3, 0.01)
	bad[1].Profile.PCrash = 1.5
	if _, err := FleetModelDomainsFingerprint(bad, NewRaft(3), nil); err == nil {
		t.Fatal("invalid profile must be rejected")
	}
}

func TestFingerprintStringIsHex(t *testing.T) {
	s := fp(t, UniformCrashFleet(3, 0.01), NewRaft(3)).String()
	if len(s) != 64 {
		t.Fatalf("hex fingerprint length = %d, want 64", len(s))
	}
}

func dfp(t *testing.T, fleet Fleet, m CountModel, domains DomainSet) Fingerprint {
	t.Helper()
	f, err := FleetModelDomainsFingerprint(fleet, m, domains)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// zonedFleet returns a 6-node fleet split across two zones plus its layout.
func zonedFleet() (Fleet, DomainSet) {
	fleet := UniformCrashFleet(6, 0.02)
	for i := range fleet {
		fleet[i].Domain = []string{"za", "zb"}[i%2]
	}
	domains := DomainSet{
		{Name: "za", ShockProb: 1e-4, CrashMultiplier: 50, ByzMultiplier: 1},
		{Name: "zb", ShockProb: 2e-4, CrashMultiplier: 40, ByzMultiplier: 1},
	}
	return fleet, domains
}

func TestFingerprintDomainLayoutDistinguished(t *testing.T) {
	fleet, domains := zonedFleet()
	m := NewRaft(6)
	base := dfp(t, fleet, m, domains)

	// Any domain layout must differ from the domain-free query.
	if base == fp(t, UniformCrashFleet(6, 0.02), m) {
		t.Fatal("domained query must not alias the domain-free query")
	}

	// Moving one node to the other zone changes the key.
	moved := append(Fleet{}, fleet...)
	moved[0].Domain = "zb"
	if dfp(t, moved, m, domains) == base {
		t.Fatal("changing a node's domain membership must change the fingerprint")
	}

	// Changing one shock probability changes the key.
	hotter := append(DomainSet{}, domains...)
	hotter[0].ShockProb = 2e-4
	if dfp(t, fleet, m, hotter) == base {
		t.Fatal("changing a shock probability must change the fingerprint")
	}

	// Changing a multiplier changes the key.
	harder := append(DomainSet{}, domains...)
	harder[1].CrashMultiplier = 41
	if dfp(t, fleet, m, harder) == base {
		t.Fatal("changing a shock multiplier must change the fingerprint")
	}
}

func TestFingerprintDomainCanonicalization(t *testing.T) {
	fleet, domains := zonedFleet()
	m := NewRaft(6)
	base := dfp(t, fleet, m, domains)

	// Renaming the domains (consistently) cannot change the Result, so it
	// must not change the key.
	renamedFleet := append(Fleet{}, fleet...)
	for i := range renamedFleet {
		renamedFleet[i].Domain = map[string]string{"za": "rack-1", "zb": "rack-2"}[renamedFleet[i].Domain]
	}
	renamedDomains := append(DomainSet{}, domains...)
	renamedDomains[0].Name = "rack-1"
	renamedDomains[1].Name = "rack-2"
	if dfp(t, renamedFleet, m, renamedDomains) != base {
		t.Fatal("renaming domains must not change the fingerprint")
	}

	// Reordering the DomainSet cannot change the Result either.
	swapped := DomainSet{domains[1], domains[0]}
	if dfp(t, fleet, m, swapped) != base {
		t.Fatal("reordering the DomainSet must not change the fingerprint")
	}

	// Permuting nodes (memberships travel with them) keeps the key.
	permuted := Fleet{fleet[4], fleet[2], fleet[0], fleet[5], fleet[3], fleet[1]}
	if dfp(t, permuted, m, domains) != base {
		t.Fatal("node permutation must not change the fingerprint")
	}

	// Memberless domains are dropped by canonicalization: same Result,
	// same key as not declaring them at all.
	padded := append(DomainSet{}, domains...)
	padded = append(padded, faultcurve.Domain{Name: "unused", ShockProb: 0.5, CrashMultiplier: 9, ByzMultiplier: 9})
	if dfp(t, fleet, m, padded) != base {
		t.Fatal("memberless domains must not fragment the cache")
	}

	// No populated domains at all: aliases the domain-free key (equal
	// Results, so sharing the cache line is correct).
	plain := UniformCrashFleet(6, 0.02)
	if dfp(t, plain, m, DomainSet{domains[0]}) != fp(t, plain, m) {
		t.Fatal("a query with no populated domains should alias the domain-free key")
	}
}

func TestFingerprintDomainRejectsInvalid(t *testing.T) {
	fleet, domains := zonedFleet()
	m := NewRaft(6)
	bad := append(DomainSet{}, domains...)
	bad[0].ShockProb = -1
	if _, err := FleetModelDomainsFingerprint(fleet, m, bad); err == nil {
		t.Fatal("invalid shock probability must be rejected")
	}
	orphan := append(Fleet{}, fleet...)
	orphan[2].Domain = "nowhere"
	if _, err := FleetModelDomainsFingerprint(orphan, m, domains); err == nil {
		t.Fatal("unresolved membership must be rejected")
	}
}

// fpGoldenFleet is an n-node fleet whose profiles repeat with period 13 in
// a scrambled order, so the sort has out-of-order keys and ties to settle:
// up to 16 keys by insertion sort, past that in the crowded buckets that
// send the whole slice to slices.SortFunc.
func fpGoldenFleet(n int, byz bool) Fleet {
	f := make(Fleet, n)
	for i := range f {
		k := (i * 7) % 13
		p := faultcurve.Profile{PCrash: 0.001 * float64(k+1), PByz: 1e-5 * float64(k%3)}
		if byz {
			p = faultcurve.Profile{PCrash: 1e-4 * float64(k%4), PByz: 0.002 * float64(k+1)}
		}
		f[i] = Node{Name: "n", Profile: p}
	}
	return f
}

// fpGoldenZones spreads fleet round-robin over zones and returns their
// definitions listed in reverse order of membership.
func fpGoldenZones(fleet Fleet, zones int) DomainSet {
	names := []string{"zone-a", "zone-b", "zone-c", "zone-d"}[:zones]
	for i := range fleet {
		fleet[i].Domain = names[i%zones]
	}
	var ds DomainSet
	for z := zones - 1; z >= 0; z-- {
		ds = append(ds, faultcurve.Domain{
			Name:            names[z],
			ShockProb:       0.001 * float64(z+2),
			CrashMultiplier: 2 + float64(z),
			ByzMultiplier:   1,
		})
	}
	return ds
}

// TestFingerprintGolden pins the hex key of representative queries. The
// fingerprint is the analyze cache key and is reported in every analyze
// response, so a change to its encoding — byte order, chunk layout, sort
// order, the sign of zero — is a re-keying and must show here. The values
// were recorded before the encoder moved to reused buffers and typed
// sorts.
func TestFingerprintGolden(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name  string
		query func() (Fleet, CountModel, DomainSet)
		want  string
	}{
		{"raft-9", func() (Fleet, CountModel, DomainSet) {
			return fpGoldenFleet(9, false), NewRaft(9), nil
		}, "203d8aed93b55275c316fbb3f6c240e554f3785235ca9e1c9619e8561eb5bd30"},
		{"raft-256", func() (Fleet, CountModel, DomainSet) {
			return fpGoldenFleet(256, false), NewRaft(256), nil
		}, "86bbfe08d00c06bfccf96bef628046b0ac43ab0c95298b2c3682e3cb130c06dc"},
		{"pbft-7", func() (Fleet, CountModel, DomainSet) {
			return fpGoldenFleet(7, true), NewPBFTForN(7), nil
		}, "a7d34bbdd373427ec91cdcba1e33e616bdc9a42dd587c9e7e2db5aa3eefb0231"},
		{"raft-48-four-zones-reversed", func() (Fleet, CountModel, DomainSet) {
			f := fpGoldenFleet(48, false)
			return f, NewRaft(48), fpGoldenZones(f, 4)
		}, "e3ddb2d63db9cf9cc0b5a5f4835a77aae78ef24c810dcab257ede66cabc13ea7"},
		{"raft-256-four-zones-reversed", func() (Fleet, CountModel, DomainSet) {
			f := fpGoldenFleet(256, false)
			return f, NewRaft(256), fpGoldenZones(f, 4)
		}, "5d98bd0f31667dad28f179cf1b029b2e0f7c1eca85e34f8672374f38b2d61ae0"},
		{"negative-zero-profile", func() (Fleet, CountModel, DomainSet) {
			f := fpGoldenFleet(5, false)
			f[3].Profile = faultcurve.Profile{PCrash: negZero, PByz: 0.001}
			return f, NewRaft(5), nil
		}, "d899ea4c0a0357235c2172bda7dfdcfab6b5105eea54b77af9f5440b631873e5"},
		{"memberless-domain", func() (Fleet, CountModel, DomainSet) {
			f := fpGoldenFleet(12, false)
			ds := fpGoldenZones(f, 2)
			return f, NewRaft(12), append(ds, faultcurve.Domain{Name: "empty", ShockProb: 0.5, CrashMultiplier: 9, ByzMultiplier: 9})
		}, "bb41476b3f9999c45bafa0a653f8d33872d8e72b70741be5568d4bbd1e994509"},
		{"only-memberless-domain", func() (Fleet, CountModel, DomainSet) {
			return fpGoldenFleet(6, false), NewRaft(6), DomainSet{{Name: "empty", ShockProb: 0.5, CrashMultiplier: 9, ByzMultiplier: 9}}
		}, "14da04cfde646b5cf11306923d843becda683ea5c025fafb654b1b052f4f88b2"},
	} {
		fleet, m, domains := tc.query()
		f, err := FleetModelDomainsFingerprint(fleet, m, domains)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := f.String(); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

// keyShapes are the key sets FuzzProfileKeySort draws, by index: cold_large's
// profiles; one crash probability for all (a single crowded bucket); spread
// keys with a run of neighbouring ones crowding one bucket; every crash
// probability twice, the tie broken by the Byzantine one; canonical zeros
// among spread keys; subnormals among normal ones; certain failures (1.0)
// among spread keys; any probability a float64 spells; and any bits.
var keyShapes = []func(r *rand.Rand, i int) [2]uint64{
	func(r *rand.Rand, i int) [2]uint64 { return keyOf(0.005+0.045*r.Float64(), 0.0001+0.0019*r.Float64()) },
	func(r *rand.Rand, i int) [2]uint64 { return keyOf(0.01, r.Float64()*0.01) },
	func(r *rand.Rand, i int) [2]uint64 {
		if i%4 == 0 {
			return [2]uint64{math.Float64bits(0.01) + uint64(r.Intn(64)), math.Float64bits(0.001)}
		}
		return keyOf(r.Float64(), 0)
	},
	func(r *rand.Rand, i int) [2]uint64 {
		return keyOf(0.005+0.045*float64(i/2)/float64(1+i%997), 0.0001*float64(r.Intn(3)))
	},
	func(r *rand.Rand, i int) [2]uint64 {
		if r.Intn(8) == 0 {
			return keyOf(0, 0)
		}
		return keyOf(0.05*r.Float64(), 0)
	},
	func(r *rand.Rand, i int) [2]uint64 {
		if r.Intn(2) == 0 {
			return keyOf(math.SmallestNonzeroFloat64*float64(1+r.Intn(1<<20)), math.SmallestNonzeroFloat64)
		}
		return keyOf(0.05*r.Float64(), 0)
	},
	func(r *rand.Rand, i int) [2]uint64 {
		if r.Intn(4) == 0 {
			return keyOf(1, 0)
		}
		return keyOf(r.Float64(), 1-r.Float64())
	},
	func(r *rand.Rand, i int) [2]uint64 {
		return keyOf(math.Ldexp(r.Float64(), -r.Intn(1100)), math.Ldexp(r.Float64(), -r.Intn(1100)))
	},
	func(r *rand.Rand, i int) [2]uint64 { return [2]uint64{r.Uint64(), r.Uint64()} },
}

func keyOf(crash, byz float64) [2]uint64 {
	return profileKey(faultcurve.Profile{PCrash: crash, PByz: byz})
}

// FuzzProfileKeySort holds profileKeys.sort to slices.SortFunc's order on
// fuzzer-seeded keys of every shape, at sizes on both sides of the
// insertion-sort cutoff and the crowded-bucket fallback, on one reused
// workspace as the fingerprint encoder reuses its own.
func FuzzProfileKeySort(f *testing.F) {
	for _, n := range []uint16{0, 1, 2, 16, 17, 256, 1024} {
		for shape := range keyShapes {
			f.Add(int64(n)*31+int64(shape), n, uint8(shape))
		}
	}
	var k profileKeys
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape uint8) {
		n %= 2049
		draw := keyShapes[int(shape)%len(keyShapes)]
		r := rand.New(rand.NewSource(seed))
		k.keys = k.keys[:0]
		for i := 0; i < int(n); i++ {
			k.keys = append(k.keys, draw(r, i))
		}
		want := slices.Clone(k.keys)
		slices.SortFunc(want, compareProfileKeys)
		if got := k.sort(); !slices.Equal(got, want) {
			t.Fatalf("shape %d, %d keys: sorted to %v, want %v", shape, n, got, want)
		}
	})
}

// BenchmarkFingerprint times the profile-key encoding as the daemon runs
// it, Resolve and all — the key pieces are encoded once per Resolve, so an
// iteration without one would time only the hash: the fingerprint of a
// domain-free fleet of cold_large's profiles at N = 25, 256 and 1024, and
// of domain_churn's 48 nodes in 4 zones, and that query's rest keys (its
// pieces, each node's key sorted once, then one key per zone over the
// other three zones' chunks and the remainder). It reports the time per
// key sorted.
func BenchmarkFingerprint(b *testing.B) {
	var q Query
	resolve := func(b *testing.B, fleet Fleet, m CountModel, domains DomainSet) {
		if err := q.Resolve(fleet, m, domains); err != nil {
			b.Fatal(err)
		}
	}
	for _, n := range []int{25, 256, 1024} {
		r := rand.New(rand.NewSource(int64(n)))
		fleet, m := make(Fleet, n), CountModel(NewRaft(n))
		for i := range fleet {
			fleet[i].Profile = faultcurve.Profile{PCrash: 0.005 + 0.045*r.Float64(), PByz: 0.0001 + 0.0019*r.Float64()}
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				resolve(b, fleet, m, nil)
				fingerprintSink = q.Fingerprint()
			}
			reportPerKey(b, n)
		})
	}
	fleet, domains := ladderFleet(48, 4)
	m := CountModel(NewRaft(48))
	b.Run("N=48/D=4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resolve(b, fleet, m, domains)
			fingerprintSink = q.Fingerprint()
		}
		reportPerKey(b, 48)
	})
	b.Run("N=48/D=4/rest", func(b *testing.B) {
		var ds domainState
		for i := 0; i < b.N; i++ {
			resolve(b, fleet, m, domains)
			enc := q.encode()
			for pos := range q.layout.act {
				restKeySink = ds.restKeyFor(enc, &q.layout, pos)
			}
		}
		reportPerKey(b, len(fleet))
	})
}

// restKeyRef is the rest key encoded position by position, each call
// sorting the independent nodes and every other domain's members afresh:
// the encoding restKeyFor assembles from the pieces a Query encodes once.
func restKeyRef(keys *profileKeys, fleet Fleet, m CountModel, domains DomainSet, l *domainLayout, pos int) restKey {
	buf := append([]byte(restKeyDomain), appendModelBits(nil, m)...)
	di := l.act[pos]
	buf = binary.BigEndian.AppendUint64(buf, uint64(pos))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(l.blocks[di])))
	buf = append(buf, 'I')
	buf = keys.appendSorted(buf, fleet, l.indep, false)
	for _, dj := range l.act {
		if dj == di {
			continue
		}
		buf = appendDomainBits(buf, domains[dj])
		buf = keys.appendSorted(buf, fleet, l.blocks[dj], false)
	}
	return sha256.Sum256(buf)
}

// TestRestKeysMatchPerPositionEncoding holds the assembled rest keys to
// restKeyRef over random layouts: 1-6 domains, some left unpopulated, with
// and without independent nodes, repeated profiles, and -0 shocks,
// multipliers and probabilities. One Query and one domainState serve every
// layout, so pieces left from a larger query must not leak into a smaller
// one's keys.
func TestRestKeysMatchPerPositionEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	negZero := math.Copysign(0, -1)
	prob := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return negZero
		case 1:
			return 0.01 // repeated across nodes and domains
		}
		return 0.05 * rng.Float64()
	}
	var q Query
	var ds domainState
	var ref profileKeys
	for trial := 0; trial < 400; trial++ {
		d := 1 + trial%6
		domains := make(DomainSet, d)
		for j := range domains {
			domains[j] = faultcurve.Domain{Name: fmt.Sprintf("z%d", j), ShockProb: prob(), CrashMultiplier: 1 + 4*rng.Float64(), ByzMultiplier: 1}
			if rng.Intn(4) == 0 {
				domains[j].CrashMultiplier, domains[j].ByzMultiplier = negZero, negZero
			}
		}
		n := 1 + rng.Intn(40)
		indep := trial%2 == 0 // half the layouts have no independent remainder
		fleet := make(Fleet, n)
		for i := range fleet {
			fleet[i].Profile = faultcurve.Profile{PCrash: prob(), PByz: prob() / 10}
			if !indep || rng.Intn(3) > 0 {
				// Members land in the first d-1 domains on odd trials, so the
				// last one is left unpopulated.
				fleet[i].Domain = domains[rng.Intn(max(d-trial%2, 1))].Name
			}
		}
		var m CountModel = NewRaft(n)
		if n >= 4 && trial%3 == 0 {
			m = NewPBFTForN(n)
		}
		if err := q.Resolve(fleet, m, domains); err != nil {
			t.Fatal(err)
		}
		l := &q.layout
		if len(l.act) == 0 {
			continue
		}
		enc := q.encode()
		for pos := range l.act {
			if got, want := ds.restKeyFor(enc, l, pos), restKeyRef(&ref, fleet, m, domains, l, pos); got != want {
				t.Fatalf("trial %d (N=%d, D=%d, %d populated, %d independent): position %d keys %x, want %x",
					trial, n, d, len(l.act), len(l.indep), pos, got[:8], want[:8])
			}
		}
	}
}

var (
	fingerprintSink Fingerprint
	restKeySink     restKey
)

func reportPerKey(b *testing.B, keys int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys), "ns/key")
}
