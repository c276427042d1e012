package quality

// CompressLabels renumbers an arbitrary label assignment to the dense range
// [0, count) in first-appearance order, preserving the partition (two
// vertices share a label after compression iff they shared one before).
// It returns the compressed labels and the community count. This is the
// single renumbering implementation for the repository; engine.CompressLabels
// and the per-algorithm helpers delegate here — it lives in quality (the
// bottom of the layering, graph-only imports) so both the engine and the
// metric functions can reach it without a cycle.
//
// byLabel maps the labels into [0, k) by an order-preserving bijection
// (vertex-id labels, as every detector here returns, pass through as they
// are), so the renumbering runs through a slice of k entries and first
// appearances are those of the original labels.
func CompressLabels(labels []uint32) ([]uint32, int) {
	ranked, k := byLabel(labels)
	out := make([]uint32, len(labels))
	// remap[c] is c's new id + 1; 0 means c has not appeared yet.
	remap := make([]uint32, k)
	next := uint32(0)
	for i, c := range ranked {
		if remap[c] == 0 {
			next++
			remap[c] = next
		}
		out[i] = remap[c] - 1
	}
	return out, int(next)
}
