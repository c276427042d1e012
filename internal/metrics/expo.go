package metrics

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"strings"
)

// Exposition: WritePrometheus renders the registry in the Prometheus text
// format (version 0.0.4) — HELP/TYPE headers, histogram _bucket/_sum/_count
// series with cumulative le bounds — which is what a scraper pulls from
// /metrics. It is the registry's one exposition.

// WritePrometheus writes every registered metric in Prometheus text format,
// in name order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range r.sorted() {
		if e.help != "" {
			bw.WriteString("# HELP " + e.name + " " + escapeHelp(e.help) + "\n")
		}
		bw.WriteString("# TYPE " + e.name + " " + e.kind.promType() + "\n")
		switch e.kind {
		case kindCounter:
			writeCounter(bw, e.name, "", "", e.counter)
		case kindGauge:
			writeSample(bw, e.name, "", "", formatFloat(e.gauge.Value()))
		case kindCounterFunc, kindGaugeFunc:
			writeSample(bw, e.name, "", "", formatFloat(e.fn()))
		case kindHistogram:
			writeHistogram(bw, e.name, "", "", e.hist)
		case kindCounterVec:
			for _, k := range e.sortedVecKeys() {
				writeCounter(bw, e.name, e.label, k, e.counterChild(k))
			}
		case kindGaugeVec:
			for _, k := range e.sortedVecKeys() {
				writeSample(bw, e.name, e.label, k, formatFloat(e.gaugeChild(k).Value()))
			}
		case kindHistogramVec:
			for _, k := range e.sortedVecKeys() {
				writeHistogram(bw, e.name, e.label, k, e.histChild(k))
			}
		}
	}
	return bw.Flush()
}

// writeSample writes one `name{label="value"} v` line (labels omitted when
// label is empty).
func writeSample(bw *bufio.Writer, name, label, value, v string) {
	bw.WriteString(name)
	if label != "" {
		bw.WriteString("{" + label + "=\"" + escapeLabel(value) + "\"}")
	}
	bw.WriteString(" " + v + "\n")
}

// writeCounter writes a counter sample, appending its exemplar in
// OpenMetrics style (` # {trace_id="..."} 1 <unix-seconds>`) when one was
// recorded — the hook that links a counter spike to the trace behind it.
func writeCounter(bw *bufio.Writer, name, label, value string, c *Counter) {
	bw.WriteString(name)
	if label != "" {
		bw.WriteString("{" + label + "=\"" + escapeLabel(value) + "\"}")
	}
	bw.WriteString(" " + formatInt(c.Value()))
	if ex := c.Exemplar(); ex != nil {
		bw.WriteString(" # {trace_id=\"" + escapeLabel(ex.TraceID) + "\"} 1 " +
			strconv.FormatFloat(float64(ex.Time.UnixNano())/1e9, 'f', 3, 64))
	}
	bw.WriteString("\n")
}

// writeHistogram writes the cumulative _bucket series plus _sum and _count.
// An extra label (family child) is merged before the le label.
func writeHistogram(bw *bufio.Writer, name, label, value string, h *Histogram) {
	var cum int64
	pre := ""
	if label != "" {
		pre = label + "=\"" + escapeLabel(value) + "\","
	}
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		bw.WriteString(name + "_bucket{" + pre + "le=\"" + formatFloat(b) + "\"} " + formatInt(cum) + "\n")
	}
	cum += h.counts[len(h.bounds)].Load()
	bw.WriteString(name + "_bucket{" + pre + "le=\"+Inf\"} " + formatInt(cum))
	if ex := h.Exemplar(); ex != nil {
		bw.WriteString(" # {trace_id=\"" + escapeLabel(ex.TraceID) + "\"} " +
			formatFloat(ex.Value) + " " +
			strconv.FormatFloat(float64(ex.Time.UnixNano())/1e9, 'f', 3, 64))
	}
	bw.WriteString("\n")
	suffix := ""
	if label != "" {
		suffix = "{" + label + "=\"" + escapeLabel(value) + "\"}"
	}
	bw.WriteString(name + "_sum" + suffix + " " + formatFloat(h.Sum()) + "\n")
	bw.WriteString(name + "_count" + suffix + " " + formatInt(h.Count()) + "\n")
}

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the text format: backslash, quote,
// and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a help string: backslash and newline.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
