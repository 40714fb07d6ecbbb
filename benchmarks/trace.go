package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"scc/internal/fault"
	"scc/internal/metrics"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/timing"
)

// spanRec is one span of the traced run: a call from the benchmark into
// one layer, or the pass/unit that caused it.
type spanRec struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Unit    string `json:"unit"`   // spans of one unit share this identifier
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, which is how the untraced run calls the
// same unit code. The harness is single-threaded, so the open spans form
// a stack and the parent of a new span is the top of it.
type tracer struct {
	t0    time.Time
	unit  string
	spans []spanRec
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) setUnit(id string) {
	if t != nil {
		t.unit = id
	}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Unit: t.unit, Name: name, StartNS: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNS = time.Since(t.t0).Nanoseconds()
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = t.open[:i]
			break
		}
	}
}

// last returns the duration in milliseconds of the most recent finished
// span with the given name, 0 when there is none.
func (t *tracer) last(name string) float64 {
	if t == nil {
		return 0
	}
	for i := len(t.spans) - 1; i >= 0; i-- {
		if s := t.spans[i]; s.Name == name && s.EndNS > 0 {
			return float64(s.EndNS-s.StartNS) / 1e6
		}
	}
	return 0
}

func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// repOut is what a harness-built unit reports: its simulated latency
// (set by the unit; elapsedUS is the chip's clock when the run ended),
// the host time of the two layer calls every chip lifetime consists of,
// and, when instrumented, the raw modelled-chip counts.
type repOut struct {
	virtUS     float64
	elapsedUS  float64
	build, run time.Duration
	counts     map[string]float64
}

func (r *repOut) merge(o repOut) {
	r.virtUS += o.virtUS
	r.build += o.build
	r.run += o.run
	for k, v := range o.counts {
		r.counts[k] += v
	}
}

// runChip is the one way the benchmark's own units build and run a chip:
// scc.New + rcce.NewComm + Launch under a "scc.build" span, Chip.Run
// under "simtime.run". With instrument set, a metrics registry is
// attached and the chip's counters are read after the run; attaching it
// never changes virtual time (metrics package contract).
func runChip(tr *tracer, model *timing.Model, fp *fault.Plan, instrument bool, prog func(c *scc.Core, comm *rcce.Comm)) (repOut, error) {
	out := repOut{counts: map[string]float64{}}
	span, t0 := tr.begin("scc.build"), time.Now()
	chip := scc.New(model)
	var reg *metrics.Registry
	if instrument {
		reg = metrics.New(chip.NumCores())
		chip.SetMetrics(reg)
	}
	if fp != nil {
		fault.Install(chip, fp)
	}
	comm := rcce.NewComm(chip)
	chip.Launch(func(c *scc.Core) { prog(c, comm) })
	out.build = time.Since(t0)
	tr.end(span)

	span, t0 = tr.begin("simtime.run"), time.Now()
	err := chip.Run()
	out.run = time.Since(t0)
	tr.end(span)
	out.elapsedUS = chip.Now().Micros()
	if err != nil {
		return out, fmt.Errorf("chip run: %w", err)
	}
	if instrument {
		addChipCounts(out.counts, chip, reg.Snapshot())
	}
	return out, nil
}

func addChipCounts(counts map[string]float64, chip *scc.Chip, snap *metrics.Snapshot) {
	handoffs, fastpath := chip.Engine.SchedStats()
	counts["simtime.handoffs"] += float64(handoffs)
	counts["simtime.fastpath"] += float64(fastpath)
	net := chip.Net.Stats()
	counts["mesh.transfers"] += float64(net.Transfers)
	counts["mesh.queued_ticks"] += float64(net.Queued)
	for name, v := range snap.Totals.Counters {
		counts["ctr."+name] += float64(v)
	}
	for name, v := range snap.Totals.Phases {
		counts["phase."+name] += float64(v)
		counts["phase.total"] += float64(v)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// chipMetrics turns the raw counts of the instrumented unit into the
// modelled-chip per-layer metrics. They are exact: the same seed gives
// the same values, and a change meant only to speed the simulator up
// must leave every one of them identical.
func chipMetrics(c map[string]float64) map[string]float64 {
	events := c["simtime.handoffs"] + c["simtime.fastpath"]
	return map[string]float64{
		"simtime.events":         events,
		"simtime.fastpath_ratio": ratio(c["simtime.fastpath"], events),
		"mesh.transfers":         c["mesh.transfers"],
		"mesh.link_queued_us":    c["mesh.queued_ticks"] / 1600,
		"scc.l1_hit_ratio":       ratio(c["ctr.l1-hits"], c["ctr.l1-hits"]+c["ctr.l1-misses"]),
		"scc.mpb_bytes":          c["ctr.mpb-bytes-read"] + c["ctr.mpb-bytes-written"],
		"scc.blocked_waits":      c["ctr.blocked-waits"],
		"scc.flag_wait_share":    ratio(c["phase.flag-wait"], c["phase.total"]),
		"core.overhead_share":    ratio(c["phase.overhead"], c["phase.total"]),
		"rcce.reqs_posted":       c["ctr.reqs-posted"],
		"rcce.timeouts":          c["rcce.timeouts"],
		"rcce.retransmits":       c["rcce.retransmits"],
		"fault.fired":            c["fault.fired"],
		"core.heal_agree_us":     c["core.heal_agree_us"],
		"gcmc.wait_fraction":     c["gcmc.wait_fraction"],
		"gcmc.allreduces":        c["gcmc.allreduces"],
	}
}

// ---- host share by layer ----

// hostLayers are the buckets of the CPU profile, in report order.
var hostLayers = []string{
	"simtime", "mesh", "scc", "rcce", "nb", "core", "rckmpi", "gcmc", "fault", "metrics", "bench",
	"go_switch", "go_alloc", "go_gc", "other",
}

// layerOfPackage maps a module package to its bucket; ircce and lwnb are
// the two non-blocking libraries and share one.
var layerOfPackage = map[string]string{
	"simtime": "simtime", "mesh": "mesh", "scc": "scc", "rcce": "rcce", "ircce": "nb", "lwnb": "nb",
	"core": "core", "rckmpi": "rckmpi", "gcmc": "gcmc", "fault": "fault", "metrics": "metrics", "bench": "bench",
}

// Runtime leaves are split out of the layers that called them, because
// they are what a change of design (fewer switches, fewer allocations,
// fewer pointers to scan) would remove. A sample is walked up from its
// leaf through the runtime's frames; the first frame listed here names
// the bucket. The lists hold the entry points every such stack passes
// through, not every runtime function: GC work done inside an allocation
// (an assist) meets a GC frame first, a sweep done to refill a span meets
// mallocgc first.
var runtimeLeaves = []struct {
	bucket   string
	prefixes []string
}{
	{"go_gc", []string{"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.wbBufFlush", "runtime.gcWriteBarrier"}},
	{"go_switch", []string{"runtime.schedule", "runtime.park_m", "runtime.mcall", "runtime.gopark", "runtime.goready", "runtime.ready",
		"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.goschedImpl", "runtime.gosched_m", "runtime.goexit0",
		"runtime.newproc", "runtime.findRunnable", "runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.futex"}},
	{"go_alloc", []string{"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice", "runtime.growslice",
		"runtime.makemap", "runtime.mapassign", "runtime.makechan", "runtime.memclr"}},
}

func runtimeBucket(fn string) string {
	for _, rl := range runtimeLeaves {
		for _, p := range rl.prefixes {
			if strings.HasPrefix(fn, p) {
				return rl.bucket
			}
		}
	}
	return ""
}

// bucketOf charges one profile sample, given leaf first. Walking up from
// the leaf, the first runtime frame of a split-out kind wins; otherwise
// the innermost frame in a module package names the layer.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal") || strings.HasPrefix(fn, "internal/runtime") {
			if b := runtimeBucket(fn); b != "" {
				return b
			}
			continue
		}
		if rest, ok := strings.CutPrefix(fn, "scc/internal/"); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			if b, ok := layerOfPackage[pkg]; ok {
				return b
			}
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench" // the harness's own unit code
		}
	}
	return "other"
}

// hostShares attributes the samples of a CPU profile to layers and
// returns each layer's share in percent. The profile is read back
// through `go tool pprof -traces`, which needs no dependency beyond the
// toolchain that built the benchmark.
func hostShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	data, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	weights, err := parseTraces(data)
	if err != nil {
		return nil, err
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	shares := map[string]float64{}
	for _, l := range hostLayers {
		shares[l] = 100 * ratio(weights[l], total)
	}
	return shares, nil
}

// parseTraces reads `pprof -traces` output: blocks separated by dashed
// lines, each a sample whose first line carries the value and the leaf
// function and whose following lines are the callers.
func parseTraces(data []byte) (map[string]float64, error) {
	weights := map[string]float64{}
	var stack []string
	var value float64
	flush := func() {
		if len(stack) > 0 {
			weights[bucketOf(stack)] += value
		}
		stack, value = nil, 0
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		if !inSamples {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(stack) == 0 {
			if len(fields) < 2 {
				continue
			}
			if strings.HasSuffix(fields[0], ":") {
				continue // a label line, not a sample
			}
			v, err := parseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: sample line %q: %w", line, err)
			}
			value = v
			stack = append(stack, fields[1])
			continue
		}
		stack = append(stack, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pprof -traces: %w", err)
	}
	if len(weights) == 0 {
		return nil, fmt.Errorf("pprof -traces: no samples")
	}
	return weights, nil
}

// parseDuration reads a pprof sample value such as "10ms", "1.52s" or
// "250us" into seconds. Samples of a profile of a few seconds never
// reach pprof's larger units.
func parseDuration(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return v * u.scale, nil
		}
	}
	return strconv.ParseFloat(s, 64)
}
