package dist

import "fmt"

// The joint-table algebra the correlated-domain engine ran on before its
// tables were truncated to count regions, kept as the oracle of the region
// algebra (mixture.go): MixJointCrashByz takes the convex mixture of two
// joint tables over the same nodes, ConvolveJointCrashByz adds the counts
// of two independent groups, and RegionSum reads one region's mass off a
// joint table.

// MixJointCrashByz returns the convex mixture wa·a + wb·b of two joint
// distributions over the same number of nodes.
func MixJointCrashByz(a, b *JointCrashByz, wa, wb float64) (*JointCrashByz, error) {
	out := &JointCrashByz{}
	if err := MixJointCrashByzInto(out, a, b, wa, wb); err != nil {
		return nil, err
	}
	return out, nil
}

// MixJointCrashByzInto writes the convex mixture into dst, reusing dst's
// buffer. dst may alias a or b (the mixture is element-wise); only cells
// inside either operand's live extent are visited.
func MixJointCrashByzInto(dst *JointCrashByz, a, b *JointCrashByz, wa, wb float64) error {
	if a.n != b.n {
		return fmt.Errorf("dist: cannot mix joint tables over %d and %d nodes", a.n, b.n)
	}
	w := a.n + 1
	if dst != a && dst != b {
		dst.t.size(shapeGeneral, w, w)
	}
	dst.n = a.n
	for col := 0; col < w; col++ {
		h, o := max(a.t.hi[col], b.t.hi[col]), col*w
		ra, rb, out := a.t.p[o:o+h], b.t.p[o:o+h], dst.t.p[o:o+h]
		for i := range out {
			out[i] = wa*ra[i] + wb*rb[i]
		}
		dst.t.hi[col] = h
	}
	return nil
}

// ConvolveJointCrashByz returns the joint (#crashed, #Byzantine)
// distribution of the union of two independent node groups:
// P[c, b] = Σ P_a[ca, ba]·P_b[c-ca, b-ba], each cell one compensated sum.
func ConvolveJointCrashByz(a, b *JointCrashByz) *JointCrashByz {
	out := &JointCrashByz{}
	ConvolveJointCrashByzInto(out, a, b)
	return out
}

// ConvolveJointCrashByzInto convolves a and b into dst, reusing dst's
// buffer. dst must not alias a or b. Each output cell is one compensated
// sum over its (ca, ba) sources in ascending order.
func ConvolveJointCrashByzInto(dst *JointCrashByz, a, b *JointCrashByz) {
	an, bn := a.n, b.n
	n := an + bn
	dst.resetDense(n)
	for c := 0; c <= n; c++ {
		for bOut := 0; bOut <= n-c; bOut++ {
			var s KahanSum
			for ca, caHi := max(c-bn, 0), min(c, an); ca <= caHi; ca++ {
				cb := c - ca
				for ba, baHi := max(bOut-(bn-cb), 0), min(bOut, an-ca); ba <= baHi; ba++ {
					ma := a.PMF(ca, ba)
					if ma == 0 {
						continue
					}
					if mb := b.PMF(cb, bOut-ba); mb != 0 {
						s.Add(ma * mb)
					}
				}
			}
			*dst.cell(c, bOut) = s.Sum()
		}
	}
}

// resetDense sizes d for an n-node table whose whole support triangle the
// caller is about to overwrite, and marks it all live.
func (d *JointCrashByz) resetDense(n int) {
	d.t.size(shapeGeneral, n+1, n+1)
	for b := range d.t.hi {
		d.t.hi[b] = n + 1 - b
	}
	d.n = n
}

// cell returns the address of d's cell (c, b), c + b <= n.
func (d *JointCrashByz) cell(c, b int) *float64 { return &d.t.p[b*d.t.w+c] }

// RegionSum returns the probability mass of the cells of region r: a
// compensated sum over the cells of r in row-major order (c ascending,
// then b ascending up to min(r.Byz, r.Faulty − c)). It does not clamp,
// and an empty region sums to 0.
func (d *JointCrashByz) RegionSum(r Region) float64 {
	var s KahanSum
	for c := 0; c <= min(d.n, r.Faulty); c++ {
		for b := 0; b <= min(r.Byz, r.Faulty-c, d.n-c); b++ {
			s.Add(d.PMF(c, b))
		}
	}
	return s.Sum()
}
