package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. An empty sample reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile range over the median: how far apart the
// segments of one run read, by the same rule the driver applies across
// runs. --compare reports a metric as unresolved when it exceeds the bound.
func spread(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	m := median(cp)
	if m == 0 {
		return 0
	}
	return (quantile(cp, 0.75) - quantile(cp, 0.25)) / m
}
