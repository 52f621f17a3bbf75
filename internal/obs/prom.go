package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// This file renders registries in the Prometheus text exposition format,
// version 0.0.4: https://prometheus.io/docs/instrumenting/exposition_formats/
//
//	# HELP name help text
//	# TYPE name counter|gauge|histogram
//	name{label="value"} 123
//
// Histograms expand into cumulative name_bucket{le="..."} series plus
// name_sum and name_count.

// ContentType is the Content-Type of the exposition format served by
// Handler.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// escapeHelp escapes a HELP line: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes a label value: backslash, double quote,
// newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value the way Prometheus expects: shortest
// round-trip float, with +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// mergeLabels splices an extra label into a pre-rendered label suffix —
// used for the le="..." bucket label.
func mergeLabels(rendered, extra string) string {
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

func (f *family) write(w *bufio.Writer) {
	w.WriteString("# HELP ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(escapeHelp(f.help))
	w.WriteByte('\n')
	w.WriteString("# TYPE ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(f.kind.String())
	w.WriteByte('\n')
	for _, ch := range f.children {
		switch f.kind {
		case kindCounter:
			w.WriteString(f.name)
			w.WriteString(ch.labels)
			w.WriteByte(' ')
			if ch.fn != nil {
				w.WriteString(formatValue(ch.fn()))
			} else {
				w.WriteString(strconv.FormatInt(ch.c.Load(), 10))
			}
			w.WriteByte('\n')
		case kindGauge:
			w.WriteString(f.name)
			w.WriteString(ch.labels)
			w.WriteByte(' ')
			if ch.fn != nil {
				w.WriteString(formatValue(ch.fn()))
			} else {
				w.WriteString(strconv.FormatInt(ch.g.Load(), 10))
			}
			w.WriteByte('\n')
		case kindHistogram:
			var s HistogramSnapshot
			if ch.hfn != nil {
				s = ch.hfn()
			} else {
				s = ch.h.Snapshot()
			}
			var cum int64
			for i, bound := range s.Upper {
				cum += s.Counts[i]
				w.WriteString(f.name)
				w.WriteString("_bucket")
				w.WriteString(mergeLabels(ch.labels, `le="`+formatValue(bound)+`"`))
				w.WriteByte(' ')
				w.WriteString(strconv.FormatInt(cum, 10))
				w.WriteByte('\n')
			}
			cum += s.Counts[len(s.Upper)]
			w.WriteString(f.name)
			w.WriteString("_bucket")
			w.WriteString(mergeLabels(ch.labels, `le="+Inf"`))
			w.WriteByte(' ')
			w.WriteString(strconv.FormatInt(cum, 10))
			w.WriteByte('\n')
			w.WriteString(f.name)
			w.WriteString("_sum")
			w.WriteString(ch.labels)
			w.WriteByte(' ')
			w.WriteString(formatValue(s.Sum))
			w.WriteByte('\n')
			w.WriteString(f.name)
			w.WriteString("_count")
			w.WriteString(ch.labels)
			w.WriteByte(' ')
			w.WriteString(strconv.FormatInt(s.Count, 10))
			w.WriteByte('\n')
		}
	}
}

// WritePrometheus renders every family of the registry to w in
// registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	for _, name := range r.order {
		r.families[name].write(bw)
	}
	r.mu.Unlock()
	return bw.Flush()
}

// Handler serves the concatenated exposition of the given registries —
// typically a server's own registry plus Default(). Family names must be
// disjoint across registries (server metrics are probconsd_*, engine
// metrics probcons_*); the handler does not merge same-named families.
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "metrics requires GET", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		if req.Method == http.MethodHead {
			return
		}
		for _, r := range regs {
			_ = r.WritePrometheus(w)
		}
	})
}
