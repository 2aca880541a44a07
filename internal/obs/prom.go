package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples, counter
// families as labeled series, and windows as summaries — quantile series
// in SECONDS (the Prometheus base unit for time) plus _sum and _count.
// Output is sorted by metric name so scrapes diff cleanly.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	vecs := make(map[string]*CounterVec, len(r.vecs))
	for n, v := range r.vecs {
		vecs[n] = v
	}
	windows := make(map[string]*Window, len(r.windows))
	for n, wd := range r.windows {
		windows[n] = wd
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, name := range sortedKeys(counters) {
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, counters[name].Value())
	}
	for _, name := range sortedKeys(gauges) {
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", name, name, gauges[name].Value())
	}
	for _, name := range sortedKeys(vecs) {
		v := vecs[name]
		fmt.Fprintf(&b, "# TYPE %s counter\n", name)
		for _, s := range v.snapshot() {
			b.WriteString(name)
			b.WriteByte('{')
			for i, label := range v.labels {
				if i > 0 {
					b.WriteByte(',')
				}
				// %q escapes exactly what the text format requires:
				// backslash, double quote, newline.
				fmt.Fprintf(&b, "%s=%q", label, s.values[i])
			}
			fmt.Fprintf(&b, "} %d\n", s.count)
		}
	}
	for _, name := range sortedKeys(windows) {
		wd := windows[name]
		m := wd.merged()
		fmt.Fprintf(&b, "# TYPE %s summary\n", name)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			fmt.Fprintf(&b, "%s{quantile=\"%g\"} %g\n", name, q, m.Quantile(q).Seconds())
		}
		fmt.Fprintf(&b, "%s_sum %g\n", name, m.Sum().Seconds())
		fmt.Fprintf(&b, "%s_count %d\n", name, m.Count())
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
