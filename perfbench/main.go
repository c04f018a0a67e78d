// Command perfbench is the repository's benchmark. It runs one named
// workload as a closed loop with a single caller against the public entry
// points of the simulation engines (sim.Run, multihop.Run,
// rendezvous.Run) or of an in-process wsyncd (svc.Server, svc.RunWorker,
// svc.Client), checks every output, and prints the end-to-end metrics.
// With --trace 1 it measures the same loop once untraced and once with
// the interfaces it passes into the engines wrapped, and prints per-layer
// metrics and the tracing overhead instead.
//
//	bash perfbench/run.sh --workload dense-clique --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; BENCHMARK.json at the
// repository root lists the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose engine digests reference.json holds.
const defaultSeed = 1

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 5

// minJobs is how many fresh jobs a sweep-service loop completes at least,
// so that op_ms_p90 has 10 samples beyond it.
const minJobs = 100

//go:embed reference.json
var referenceJSON []byte

// opResult is the outcome of one closed-loop operation.
type opResult struct {
	elapsed    time.Duration
	nodeRounds uint64
	// digest identifies the operation's output; equal inputs must give
	// equal digests.
	digest string
	// attempted and failed count checked operations; zero attempted means
	// one operation, failed if err is set.
	attempted, failed int
	err               error
}

// session is a set-up workload, ready to run operations. run executes
// the given input as operation op of the loop; inputs repeat only in
// pooled workloads.
type session interface {
	run(input, op int, tr *tracer) opResult
	close()
}

// workload is one named closed loop. open sets it up, including warm-up
// operations where they do not disturb the measured loop, and returns
// the set-up time; traced asks the session to collect what the traced
// loop needs beyond the wrapped interfaces. A workload with a pool
// repeats its inputs every pool operations; reference.json holds their
// digests at the default seed.
type workload struct {
	name string
	pool int
	// wallClock marks operation and set-up times taken by the wall clock;
	// the share of the virtual machine's time stolen by the hypervisor
	// during the loop or set-up is removed from them.
	wallClock bool
	open      func(seed uint64, traced bool) (session, time.Duration, error)
}

var workloads = []workload{
	// dense-clique: cohort stepping, medium resolve, delivery and output
	// bookkeeping do nearly all the work, as in the X10 dense profiles,
	// and alternating Trapdoor and Good Samaritan runs expose the gap
	// between the two protocols. No graph, churn, staggered activation or
	// service runs.
	engineWorkload("dense-clique", 128, 1, denseOp),
	// churn-graph: per-node Step (relay agents do not batch),
	// graph-masked receive, churn deltas and staggered activation
	// dominate; dense cohort stepping is absent.
	engineWorkload("churn-graph", 100, 1, churnOp),
	// rendezvous-party: the only workload on the rendezvous engine, with
	// its virtual jam-node transmitters, SetGraph mask churn and met
	// detection; the third engine a round-kernel unification rewrites.
	// Set-up plays 16 warm-up games, as one game takes only a few ms.
	engineWorkload("rendezvous-party", 1024, 16, rendezvousOp),
	// sweep-service: fresh jobs cover queue wait behind the worker's idle
	// backoff, lease, harness and pool fan-out, push and merge; cached
	// resubmits take the same job path with no compute.
	{name: "sweep-service", wallClock: true, open: openService},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"node_rounds_per_s", "node-rounds/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"sim.run_s", "s"},
	{"sim.self_s", "s"},
	{"sim.node_rounds", "count"},
	{"sim.deliveries", "count"},
	{"sim.collisions", "count"},
	{"protocol.step_s", "s"},
	{"protocol.batch_calls", "count"},
	{"protocol.step_calls", "count"},
	{"protocol.deliver_calls", "count"},
	{"protocol.output_calls", "count"},
	{"protocol.output_calls_per_node_round", "ratio"},
	{"adversary.disrupt_s", "s"},
	{"adversary.disrupt_calls", "count"},
	{"multihop.run_s", "s"},
	{"multihop.self_s", "s"},
	{"multihop.node_rounds", "count"},
	{"multihop.deliveries", "count"},
	{"multihop.collisions", "count"},
	{"churn.deltas_s", "s"},
	{"churn.deltas_calls", "count"},
	{"churn.edges", "count"},
	{"churn.rounds", "count"},
	{"rendezvous.run_s", "s"},
	{"rendezvous.self_s", "s"},
	{"rendezvous.pick_s", "s"},
	{"rendezvous.block_s", "s"},
	{"rendezvous.mask_s", "s"},
	{"rendezvous.node_rounds", "count"},
	{"rendezvous.rounds", "count"},
	{"rendezvous.meetings", "count"},
	{"harness.experiment_s", "s"},
	{"harness.experiments", "count"},
	{"harness.node_rounds", "count"},
	{"svc.submit_ms", "ms"},
	{"svc.queue_wait_s", "s"},
	{"svc.push_s", "s"},
	{"svc.pushes", "count"},
	{"svc.polls", "count"},
	{"svc.poll_useful_frac", "ratio"},
	{"svc.fetch_ms", "ms"},
	{"svc.cache_hit_frac", "ratio"},
	{"svc.replans", "count"},
	{"svc.cached_job_ms_p50", "ms"},
	{"svc.cached_job_ms_p90", "ms"},
	{"go.alloc_mb", "MiB"},
	{"go.gc_cycles", "count"},
	{"host.slowdown", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.ops", "count"},
	{"trace.spans", "count"},
}

// phase is one measured closed loop.
type phase struct {
	// times holds every checked operation's time in ms, and rounds and
	// total their node-rounds and summed time. Every operation counts, so
	// garbage-collector work shows whichever run it lands in.
	times     []float64
	rounds    uint64
	total     time.Duration
	ops       int
	attempted int
	failed    int
	digests   map[int]string // input -> digest
	allocMB   float64
	gcCycles  float64
	errs      []string
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// nodeRoundsPerSec divides the node-rounds of every checked operation by
// their summed time.
func (p *phase) nodeRoundsPerSec() float64 {
	return float64(p.rounds) / p.total.Seconds()
}

// measure runs the closed loop. A workload with an input pool runs whole
// passes over it, at least two, until seconds have passed; the service
// runs jobs until seconds have passed and at least minOps are done. A
// hard cap keeps the process inside its time limit either way.
func measure(w workload, s session, o options, tr *tracer, ref []string) *phase {
	p := &phase{digests: make(map[int]string)}
	seconds := time.Duration(o.seconds * float64(time.Second))
	hardCap := 2*seconds + 20*time.Second
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		done := i >= o.minOps && elapsed >= seconds
		if o.pool > 0 {
			done = i%o.pool == 0 && i >= 2*o.pool && elapsed >= seconds
		}
		if done || elapsed > hardCap {
			break
		}
		input := i
		if o.pool > 0 {
			input = i % o.pool
		}
		r := s.run(input, i, tr)
		p.ops++
		if r.attempted == 0 {
			r.attempted = 1
			if r.err != nil {
				r.failed = 1
			}
		}
		p.attempted += r.attempted
		p.failed += r.failed
		if r.err != nil {
			if len(p.errs) < 5 {
				p.errs = append(p.errs, r.err.Error())
			}
			continue
		}
		switch prev, seen := p.digests[input]; {
		case seen && prev != r.digest:
			p.fail("%s: operation %d digest %s, input %d gave %s earlier", w.name, i, r.digest, input, prev)
			continue
		case !seen && input < len(ref) && ref[input] != r.digest:
			p.fail("%s: operation %d digest %s, reference.json has %s", w.name, i, r.digest, ref[input])
			continue
		case !seen:
			p.digests[input] = r.digest
		}
		p.times = append(p.times, ms(r.elapsed))
		p.rounds += r.nodeRounds
		p.total += r.elapsed
	}
	runtime.ReadMemStats(&after)
	p.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	p.gcCycles = float64(after.NumGC - before.NumGC)
	return p
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	// minOps and pool are minJobs and the workload's pool size; the
	// package's tests shorten them.
	minOps int
	pool   int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	var writeRef string
	fs.StringVar(&o.workload, "workload", "", "workload to run: dense-clique, churn-graph, rendezvous-party or sweep-service")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long one measured loop runs")
	fs.IntVar(&traceFlag, "trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	fs.StringVar(&o.traceOut, "trace-out", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	fs.StringVar(&writeRef, "write-reference", "", "write the engine workloads' default-seed digests to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if writeRef != "" {
		if err := writeReference(writeRef); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(o.workload)
	if !ok || (traceFlag != 0 && traceFlag != 1) || o.seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %s, --trace 0 or 1, --seconds >= 0\n", workloadNames())
		return 2
	}
	o.trace = traceFlag == 1
	o.minOps, o.pool = minJobs, w.pool
	res, err := execute(w, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// reference returns the committed digests for w at seed, or nil.
func reference(w workload, seed uint64) ([]string, error) {
	if w.pool == 0 || seed != defaultSeed {
		return nil, nil
	}
	var ref map[string][]string
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if len(ref[w.name]) != w.pool {
		return nil, fmt.Errorf("reference.json holds %d digests for %s, want %d", len(ref[w.name]), w.name, w.pool)
	}
	return ref[w.name], nil
}

// execute sets the workload up, measures it, and assembles the result.
// Human-readable lines go to out before the caller prints the JSON line.
func execute(w workload, o options, out io.Writer) (*result, error) {
	ref, err := reference(w, o.seed)
	if err != nil {
		return nil, err
	}
	if w.pool > 0 {
		// An engine run is single-threaded. With one P the garbage
		// collector's work runs between the engine's own slices of the
		// same P instead of on whatever other CPU is idle at the time,
		// so the process CPU time of a run counts it whole and steadily.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	host := readHost()
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%t\n", w.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "# host %s\n", host)

	var s session
	var setupTimes []float64
	n := setups
	if o.trace {
		n = 1
	}
	for k := 0; k < n; k++ {
		if s != nil {
			s.close()
		}
		var setup time.Duration
		t0 := readTicks()
		s, setup, err = w.open(o.seed, false)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if w.wallClock {
			setup = time.Duration(float64(setup) * (1 - stealFrac(t0, readTicks())))
		}
		setupTimes = append(setupTimes, setup.Seconds())
	}
	t0 := readTicks()
	plain := measure(w, s, o, nil, ref)
	steal := stealFrac(t0, readTicks())
	if es, ok := s.(*engineSession); ok {
		fmt.Fprintf(out, "# host slowdown %.4f: engine CPU times are divided by it\n", es.speed.slowdown())
	}
	fmt.Fprintf(out, "# host steal %.4f of the virtual machine's CPU time\n", steal)
	s.close()
	keep := 1.0
	if w.wallClock {
		keep = 1 - steal
	}

	res := &result{Metrics: make(map[string]metric)}
	defs := endToEnd
	var values map[string]float64
	attempted, failed, errs := plain.attempted, plain.failed, plain.errs
	if !o.trace {
		values = map[string]float64{
			"setup_s":           quantile(setupTimes, 0.5),
			"node_rounds_per_s": plain.nodeRoundsPerSec() / keep,
			"op_ms_p50":         quantile(plain.times, 0.5) * keep,
			"op_ms_p90":         quantile(plain.times, 0.9) * keep,
			"peak_rss_mb":       peakRSS(),
		}
	} else {
		tr := newTracer()
		s, _, err = w.open(o.seed, true)
		if err != nil {
			return nil, fmt.Errorf("%s: traced set-up: %w", w.name, err)
		}
		traced := measure(w, s, o, tr, ref)
		if ss, ok := s.(*serviceSession); ok {
			ss.layers(tr)
		}
		s.close()
		attempted += traced.attempted
		failed += traced.failed
		errs = append(errs, traced.errs...)
		// Tracing must not change results: every operation both loops ran
		// must have the same digest.
		for key, d := range traced.digests {
			if pd, ok := plain.digests[key]; ok && pd != d {
				failed++
				errs = append(errs, fmt.Sprintf("%s: traced digest %s of input %d differs from untraced %s", w.name, d, key, pd))
			}
		}
		values = layerValues(tr, plain, traced)
		defs = perLayer
		if err := writeSpans(o, w, host, tr); err != nil {
			return nil, err
		}
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		fmt.Fprintf(out, "%-40s %.6g %s\n", d.name, values[d.name], d.unit)
	}
	res.Attempted, res.Failed = attempted, failed
	res.Correct = failed == 0
	fmt.Fprintf(out, "%-40s %.6g (%d failed of %d attempted)\n", "failed_frac", float64(failed)/math.Max(1, float64(attempted)), failed, attempted)
	for _, e := range errs {
		fmt.Fprintln(out, "# error:", e)
	}
	return res, nil
}

// layerValues derives the per-layer metrics from the traced loop, with
// allocation figures and tracing overhead measured against the untraced
// loop.
func layerValues(tr *tracer, plain, traced *phase) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for k, x := range tr.layer {
		v[k] = x
	}
	if nr := v["sim.node_rounds"] + v["multihop.node_rounds"]; nr > 0 {
		v["protocol.output_calls_per_node_round"] = v["protocol.output_calls"] / nr
	}
	for name, samples := range tr.samples {
		v[name] = quantile(samples, 0.5)
	}
	v["svc.cached_job_ms_p50"] = quantile(tr.samples["svc.cached_job_ms"], 0.5)
	v["svc.cached_job_ms_p90"] = quantile(tr.samples["svc.cached_job_ms"], 0.9)
	v["go.alloc_mb"] = plain.allocMB
	v["go.gc_cycles"] = plain.gcCycles
	v["trace.overhead_frac"] = quantile(traced.times, 0.5)/quantile(plain.times, 0.5) - 1
	v["trace.ops"] = float64(traced.ops)
	v["trace.spans"] = float64(len(tr.spans))
	return v
}

// writeSpans writes the traced run's spans, with the host, to a JSON file
// under o.traceOut.
func writeSpans(o options, w workload, host hostInfo, tr *tracer) error {
	if err := os.MkdirAll(o.traceOut, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	path := filepath.Join(o.traceOut, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string   `json:"workload"`
		Seed     uint64   `json:"seed"`
		Host     hostInfo `json:"host"`
		Spans    []span   `json:"spans"`
	}{w.name, o.seed, host, tr.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans to %s: %w", path, err)
	}
	return nil
}

// writeReference computes every pooled workload's digests at the default
// seed and writes them as reference.json.
func writeReference(path string) error {
	ref := make(map[string][]string)
	for _, w := range workloads {
		if w.pool == 0 {
			continue
		}
		s, _, err := w.open(defaultSeed, false)
		if err != nil {
			return err
		}
		for i := 0; i < w.pool; i++ {
			r := s.run(i, i, nil)
			if r.err != nil {
				return r.err
			}
			ref[w.name] = append(ref[w.name], r.digest)
		}
		s.close()
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSS returns the process's peak resident set size in MiB, from
// /proc/self/status.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// hostInfo identifies the machine and build a measurement comes from.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit)
}

// readHost reads the CPU model from /proc/cpuinfo and the commit from
// PERFBENCH_COMMIT, which run.sh sets when the tree is a git checkout.
func readHost() hostInfo {
	h := hostInfo{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		h.Commit = c
	}
	return h
}
