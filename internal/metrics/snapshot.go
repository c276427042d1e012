package metrics

// Point-in-time flattened view of the registry, for programmatic consumers:
// flight bundles embed it so a post-mortem carries the metrics at capture.
// The Prometheus exposition in expo.go is for scrapers; Snapshot is
// for code that wants typed values without parsing text.

// MetricValue is one flattened sample: scalar metrics appear once with an
// empty Label, families once per label value, histograms as their _count and
// _sum components.
type MetricValue struct {
	// Name is the metric name ("nulpa_work_edge_visits_total",
	// "engine_iteration_seconds_count", ...).
	Name string `json:"name"`
	// Label is the label value for family children, empty for scalars.
	Label string `json:"label,omitempty"`
	// Value is the current reading.
	Value float64 `json:"value"`
	// Kind is "counter" or "gauge" (histogram components are counters).
	Kind string `json:"kind"`
}

// Snapshot returns every registered metric's current value, sorted by name
// then label. Scrape-time funcs are invoked; vec children are enumerated.
func (r *Registry) Snapshot() []MetricValue {
	var out []MetricValue
	for _, e := range r.sorted() {
		switch e.kind {
		case kindCounter:
			out = append(out, MetricValue{Name: e.name, Value: float64(e.counter.Value()), Kind: "counter"})
		case kindGauge:
			out = append(out, MetricValue{Name: e.name, Value: e.gauge.Value(), Kind: "gauge"})
		case kindCounterFunc:
			out = append(out, MetricValue{Name: e.name, Value: e.fn(), Kind: "counter"})
		case kindGaugeFunc:
			out = append(out, MetricValue{Name: e.name, Value: e.fn(), Kind: "gauge"})
		case kindHistogram:
			out = append(out,
				MetricValue{Name: e.name + "_count", Value: float64(e.hist.Count()), Kind: "counter"},
				MetricValue{Name: e.name + "_sum", Value: e.hist.Sum(), Kind: "counter"})
		case kindCounterVec:
			for _, k := range e.sortedVecKeys() {
				out = append(out, MetricValue{Name: e.name, Label: k, Value: float64(e.counterChild(k).Value()), Kind: "counter"})
			}
		case kindGaugeVec:
			for _, k := range e.sortedVecKeys() {
				out = append(out, MetricValue{Name: e.name, Label: k, Value: e.gaugeChild(k).Value(), Kind: "gauge"})
			}
		case kindHistogramVec:
			for _, k := range e.sortedVecKeys() {
				h := e.histChild(k)
				out = append(out,
					MetricValue{Name: e.name + "_count", Label: k, Value: float64(h.Count()), Kind: "counter"},
					MetricValue{Name: e.name + "_sum", Label: k, Value: h.Sum(), Kind: "counter"})
			}
		}
	}
	return out
}
