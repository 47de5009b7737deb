package obsv

import (
	"io"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// WritePrometheus renders a metrics registry in the Prometheus text
// exposition format (version 0.0.4) — the one Prometheus encoder in
// the repo, behind the live /metrics endpoint, the jobs' metrics.prom
// artifact and the CLIs' -metrics-out file. Counters and gauges render
// as single samples, histograms as cumulative le-buckets plus _sum and
// _count; each family gets one # TYPE line ahead of its samples.
// Labels render in series order, and a histogram bucket with a span
// exemplar carries it OpenMetrics-style (` # {span="<id>"} 1`). The
// rendering is byte-deterministic: the registry keeps its sections in
// series order, floats use Go's shortest-exact formatting, and metric
// names are sanitized with a fixed rule (every character outside
// [a-zA-Z0-9_:] becomes '_'). A nil registry renders nothing.
func WritePrometheus(w io.Writer, m *telemetry.Metrics) error {
	var b strings.Builder
	// family writes the # TYPE line when a new family starts (series of
	// one family are adjacent in a registry section) and returns the
	// family's sanitized name.
	var last string
	family := func(name, typ string) string {
		name = promName(name)
		if name != last {
			b.WriteString("# TYPE " + name + " " + typ + "\n")
			last = name
		}
		return name
	}
	// sample writes one sample line: name and suffix, the label set
	// plus an le bucket label when le is set, the value, and the span
	// exemplar when ex is set.
	sample := func(name, suffix string, labels []telemetry.Label, le, value, ex string) {
		b.WriteString(name)
		b.WriteString(suffix)
		sep := byte('{')
		for _, l := range labels {
			b.WriteByte(sep)
			b.WriteString(l.Name + "=" + strconv.Quote(l.Value))
			sep = ','
		}
		if le != "" {
			b.WriteByte(sep)
			b.WriteString(`le="` + le + `"`)
			sep = ','
		}
		if sep == ',' {
			b.WriteByte('}')
		}
		b.WriteByte(' ')
		b.WriteString(value)
		if ex != "" {
			b.WriteString(" # {span=" + strconv.Quote(ex) + "} 1")
		}
		b.WriteByte('\n')
	}
	for _, c := range m.Counters() {
		sample(family(c.Name(), "counter"), "", c.Labels(), "", promFloat(c.Value()), "")
	}
	for _, g := range m.Gauges() {
		sample(family(g.Name(), "gauge"), "", g.Labels(), "", promFloat(g.Value()), "")
	}
	for _, h := range m.Histograms() {
		name, labels := family(h.Name(), "histogram"), h.Labels()
		counts, exemplars := h.Counts(), h.Exemplars()
		var cum uint64
		for i, bound := range h.Bounds() {
			cum += counts[i]
			var ex string
			if i < len(exemplars) {
				ex = exemplars[i]
			}
			sample(name, "_bucket", labels, promFloat(bound), strconv.FormatUint(cum, 10), ex)
		}
		cum += counts[len(counts)-1]
		sample(name, "_bucket", labels, "+Inf", strconv.FormatUint(cum, 10), "")
		sample(name, "_sum", labels, "", promFloat(h.Sum()), "")
		sample(name, "_count", labels, "", strconv.FormatUint(h.Count(), 10), "")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promName maps a registry name onto the Prometheus name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		switch {
		case r == '_' || r == ':',
			r >= 'a' && r <= 'z',
			r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// promFloat is the registry's shortest-exact float formatting.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
