package main

import (
	"encoding/json"
	"strings"
)

// metricDef names one metric of the benchmark. BENCHMARK.json repeats
// these tables for the driver; a test keeps the two in step.
type metricDef struct {
	name  string
	unit  string
	bound float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd lists what a user of the simulator sees. Every one is
// lower-is-better and never zero. Host-time and allocation metrics are
// per measured pass, so they do not depend on -seconds. Each bound is at
// least three times the quartile spread the metric shows across ten runs
// with ten seeds on the host the benchmark was sized on (AA.md), with one
// exception stated there: peak_rss_mb on fig9_48.
var endToEnd = []metricDef{
	{"setup_s", "s", 0.25},
	{"host_ref_s", "s", 0.25},
	{"cpu_ref_s", "s", 0.25},
	{"alloc_mb", "MB", 0.01},
	{"allocs_k", "count", 0.01},
	{"peak_rss_mb", "MB", 0.25},
	{"virt_us", "us", 0.02},
}

// perLayerNames lists the metrics of single layers, reported by the
// traced run. Units follow from the names (see unitOf).
var perLayerNames = []string{
	// harness spans around the layers, on the representative unit
	"bench.registry_load_ms", "timing.model_build_ms", "scc.build_ms", "simtime.run_ms", "bench.check_ms",
	"bench.trace_overhead_pct", "bench.wall_s_raw", "bench.unit_ms_p50", "bench.unit_samples", "bench.ref_share_pct",
	// host share by layer, from the CPU profile of the traced pass
	"hostshare.simtime", "hostshare.mesh", "hostshare.scc", "hostshare.rcce", "hostshare.nb", "hostshare.core", "hostshare.rckmpi",
	"hostshare.gcmc", "hostshare.fault", "hostshare.metrics", "hostshare.bench", "hostshare.go_switch", "hostshare.go_alloc", "hostshare.go_gc", "hostshare.other",
	// Go runtime, over the untraced pass
	"go.gc_cycles", "go.gc_pause_ms", "go.heap_peak_mb",
	// accuracy against the paper, where the paper has a reference
	"paper.err_pct", "paper.ratios_checked",
	// modelled-chip counters of the instrumented unit, exact
	"simtime.events", "simtime.fastpath_ratio", "mesh.transfers", "mesh.link_queued_us",
	"scc.l1_hit_ratio", "scc.mpb_bytes", "scc.blocked_waits", "scc.flag_wait_share", "core.overhead_share",
	"rcce.reqs_posted", "rcce.timeouts", "rcce.retransmits", "fault.fired", "core.heal_agree_us",
	"gcmc.wait_fraction", "gcmc.allreduces",
	// layer probes
	"simtime.event_ns", "simtime.handoff_ns", "simtime.fastpath_ns", "simtime.timeout_ns", "simtime.signal_wake_ns", "simtime.spawn_ns",
	"mesh.transfer_ns", "mesh.transfer_contended_ns", "mesh.reset_ns",
	"scc.priv_line_ns", "scc.mpb_line_ns", "scc.flag_set_ns", "scc.flag_wait_ns", "scc.build_us_per_core_48", "scc.build_us_per_core_10k",
	"rcce.sendrecv_small_ns", "rcce.sendrecv_552_ns", "rcce.nb_sendrecv_552_ns", "rcce.robust_sendrecv_552_ns", "rcce.barrier48_us",
	"rcce.sendrecv_allocs", "rcce.robust_allocs",
	"core.allreduce552.ring.host_ms", "core.allreduce552.ring.virt_us",
	"core.allreduce552.tree.host_ms", "core.allreduce552.tree.virt_us",
	"core.allreduce552.recdouble.host_ms", "core.allreduce552.recdouble.virt_us",
	"core.allreduce552.linear.host_ms", "core.allreduce552.linear.virt_us",
	"core.allreduce552.mpb.host_ms", "core.allreduce552.mpb.virt_us",
	"core.barrier10k_virt_us", "core.allreduce_1k_host_ms",
	"rckmpi.allreduce552_host_ms",
	"synth.table_parse_ms", "synth.enumerate_ms", "synth.compile_us",
	"gcmc.cycle_host_ms", "gcmc.init_host_ms",
	"fault.plan_us", "fault.install_overhead_pct",
	"metrics.overhead_pct", "trace.export_ms",
	"bench.cells_per_s_serial", "bench.parallel_speedup",
	"fabric.hier_allreduce_host_ms", "fabric.hier_allreduce_virt_us",
	"sccsim.run48_host_ms",
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasPrefix(name, "hostshare."), strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_us"), strings.HasSuffix(name, "_us_per_core_48"), strings.HasSuffix(name, "_us_per_core_10k"):
		return "us"
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, "_ms_p50"):
		return "ms"
	case strings.HasSuffix(name, "_s_raw"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_fraction"):
		return "ratio"
	case strings.HasSuffix(name, "_per_s_serial"):
		return "1/s"
	case strings.HasSuffix(name, "_speedup"):
		return "x"
	case strings.HasSuffix(name, "_bytes"):
		return "B"
	}
	return "count"
}

// betterOf gives the direction of a per-layer metric: the few ratios and
// rates where more is better, lower for every time, share and count.
func betterOf(name string) string {
	switch name {
	case "simtime.fastpath_ratio", "scc.l1_hit_ratio", "bench.cells_per_s_serial", "bench.parallel_speedup",
		"bench.unit_samples", "paper.ratios_checked":
		return "higher"
	}
	return "lower"
}

// contract is BENCHMARK.json.
type contract struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []contractLoad   `json:"workloads"`
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractLayer  `json:"per_layer"`
}

type contractLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contractLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the length of the measured phase the driver asks for.
const runSeconds = 20

// contractJSON renders BENCHMARK.json from the tables above, so the file
// at the root is generated, never edited: go run ./benchmarks -contract.
func contractJSON() ([]byte, error) {
	c := contract{Command: []string{"bash", "benchmarks/run.sh"}, Paths: []string{"benchmarks"}, RunSeconds: runSeconds}
	for _, w := range workloads() {
		c.Workloads = append(c.Workloads, contractLoad{w.name, w.why})
	}
	for _, d := range endToEnd {
		c.EndToEnd = append(c.EndToEnd, contractMetric{d.name, d.unit, "lower", d.bound})
	}
	for _, n := range perLayerNames {
		c.PerLayer = append(c.PerLayer, contractLayer{n, unitOf(n), betterOf(n)})
	}
	return json.MarshalIndent(c, "", "  ")
}
