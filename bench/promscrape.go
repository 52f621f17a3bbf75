package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// promSnapshot is one /metrics scrape: sample name with its rendered label
// set (`probconsd_cache_hits_total{cache="analyze"}`) to value.
type promSnapshot map[string]float64

// parseProm reads Prometheus text exposition (format 0.0.4, the only one
// the daemon writes): comment lines are skipped, every other line is
// "name{labels} value".
func parseProm(text []byte) (promSnapshot, error) {
	snap := promSnapshot{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		snap[line[:cut]] = v
	}
	return snap, sc.Err()
}

// promDelta is what the daemon's counters did between two scrapes.
type promDelta struct{ before, after promSnapshot }

// of returns how much the named sample grew. A sample missing from either
// scrape is an error: a renamed counter must break the benchmark loudly,
// not read as zero work.
func (d promDelta) of(key string) (float64, error) {
	b, okB := d.before[key]
	a, okA := d.after[key]
	if !okB || !okA {
		return 0, fmt.Errorf("/metrics has no sample %s", key)
	}
	return a - b, nil
}

// share returns num / (num + sum(rest)) over the deltas of the named
// samples, 0 when nothing happened.
func (d promDelta) share(num string, rest ...string) (float64, error) {
	n, err := d.of(num)
	if err != nil {
		return 0, err
	}
	total := n
	for _, k := range rest {
		v, err := d.of(k)
		if err != nil {
			return 0, err
		}
		total += v
	}
	if total == 0 {
		return 0, nil
	}
	return n / total, nil
}

// histQuantile estimates the q-quantile of an unlabeled histogram family
// from its scraped cumulative buckets, with the daemon's own estimator.
func (s promSnapshot) histQuantile(family string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := family + `_bucket{le="`
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		if le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64); err == nil {
			bs = append(bs, bucket{le, v})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	var snap obs.HistogramSnapshot
	prev := 0.0
	for _, b := range bs {
		if !math.IsInf(b.le, 1) {
			snap.Upper = append(snap.Upper, b.le)
		}
		snap.Counts = append(snap.Counts, int64(b.cum-prev))
		snap.Count = int64(b.cum)
		prev = b.cum
	}
	return snap.Quantile(q)
}
