package telemetry

import (
	"fmt"
	"strings"
	"time"
)

// FormatIters renders per-iteration records as a fixed-width table — the
// output of cmd/nulpa -trace. The same records feed the Chrome trace
// exporter, so the table and the timeline cannot disagree.
func FormatIters(recs []IterRecord) string {
	if len(recs) == 0 {
		return "(no per-iteration records)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%5s %3s %3s %10s %9s %10s %9s %10s %10s %10s %12s %12s %9s %12s\n",
		"iter", "PL", "CC", "moves", "reverts", "deltaN", "pruned",
		"t-kernel", "b-kernel", "x-kernel", "edges", "probes", "active", "time")
	for _, r := range recs {
		fmt.Fprintf(&b, "%5d %3s %3s %10d %9d %10d %9d %10s %10s %10s %12d %12d %9d %12v\n",
			r.Iter, mark(r.PickLess), mark(r.CrossCheck),
			r.Moves, r.Reverts, r.DeltaN, r.Pruned,
			ms(r.ThreadKernel), ms(r.BlockKernel), ms(r.CrossKernel),
			r.EdgeVisits, r.HashProbes, r.ActiveVertices,
			r.Duration.Round(time.Microsecond))
	}
	return b.String()
}

// Summary renders the kernel and SM aggregates as fixed-width tables; empty
// when no kernel launches were recorded (the CPU baselines).
func (r *Recorder) Summary() string {
	ks := r.KernelSummaries()
	if len(ks) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %8s %12s %12s %10s %10s %12s %10s %12s %10s\n",
		"kernel", "launches", "total", "SM busy", "blocks", "phases",
		"edges", "flips", "probes", "active")
	for _, k := range ks {
		fmt.Fprintf(&b, "%-22s %8d %12v %12v %10d %10d %12d %10d %12d %10d\n",
			k.Kernel, k.Launches,
			k.Total.Round(time.Microsecond), k.SMBusy.Round(time.Microsecond),
			k.Blocks, k.Phases,
			k.Work.EdgeVisits, k.Work.Moves+k.Work.Reverts, k.Work.HashProbes, k.Work.ActiveVertices)
	}
	sms := r.SMUtilization()
	if len(sms) > 0 {
		fmt.Fprintf(&b, "\n%6s %5s %12s %10s\n", "device", "SM", "busy", "blocks")
		for _, s := range sms {
			fmt.Fprintf(&b, "%6d %5d %12v %10d\n", s.Device, s.SM, s.Busy.Round(time.Microsecond), s.Blocks)
		}
	}
	return b.String()
}

func mark(v bool) string {
	if v {
		return "*"
	}
	return "-"
}

func ms(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3fms", float64(d.Nanoseconds())/1e6)
}
