// Command perfbench is the repository's host-time benchmark. It builds one
// of four workloads from a seed through the public API of core, bgp and
// trafgen, times the calls into each layer from outside, checks that every
// simulated outcome is correct, and prints one JSON result line.
//
//	perfbench --workload dataplane --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 is a separate run that
// prints the per-layer metrics and writes its spans to
// .bench_build/trace/. README.md explains the workloads and metrics.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"mplsvpn/internal/sim"
)

// endToEnd and perLayer list every metric a result carries, by name and
// unit; BENCHMARK.json declares the same lists.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput", "1/s"},
	{"op_ms.p50", "ms"},
	{"peak_heap_mb", "MiB"},
}

var perLayer = []struct{ name, unit string }{
	{"op_ms.tail", "ms"},
	{"sim.events_per_pkt", "count"},
	{"sim.step_ns.p50", "ns"},
	{"sim.step_ns.tail", "ns"},
	{"sim.heap_ns", "ns"},
	{"sim.pending.mean", "count"},
	{"sim.cpu_per_wall", "ratio"},
	{"topo.partition_ms", "ms"},
	{"netsim.handoffs_per_pkt", "count"},
	{"netsim.max_shard_tx_share", "ratio"},
	{"netsim.probe_ns_per_hop", "ns"},
	{"device.receive_ns.ce", "ns"},
	{"device.receive_ns.pe_in", "ns"},
	{"device.receive_ns.p", "ns"},
	{"device.receive_ns.pe_out", "ns"},
	{"device.hops_per_pkt", "count"},
	{"mpls.ilm_ns", "ns"},
	{"vpn.vrf_lookup_ns", "ns"},
	{"qos.sched_ns.shallow", "ns"},
	{"qos.sched_ns.deep", "ns"},
	{"qos.queue_depth.mean", "count"},
	{"qos.drops", "count"},
	{"go.allocs_per_pkt", "count"},
	{"go.bytes_per_pkt", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"ospf.converge_ms", "ms"},
	{"ospf.notify_ms", "ms"},
	{"ldp.converge_ms", "ms"},
	{"rsvp.setup_ms", "ms"},
	{"rsvp.lsps_per_fault", "count"},
	{"core.fault_ms", "ms"},
	{"core.reconverge_unexplained_ms", "ms"},
	{"snapshot.bytes", "B"},
	{"snapshot.encode_mb_s", "MB/s"},
	{"snapshot.decode_mb_s", "MB/s"},
	{"snapshot.checkpoint_ms", "ms"},
	{"snapshot.restore_ms", "ms"},
	{"core.rebuild_ms", "ms"},
	{"bgp.updates", "count"},
	{"bgp.flap_updates", "count"},
	{"bgp.converge_s", "s"},
	{"bgp.updates_per_s", "1/s"},
	{"bgp.bytes_per_route", "B"},
	{"bgp.best_ns", "ns"},
	{"layers.unexplained_ns_per_pkt", "ns"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"fail_ratio", "ratio"},
}

// workloads maps each workload name to its run. README.md says why each
// exists.
var workloads = map[string]func(*run) error{
	"dataplane": func(r *run) error {
		return runPacket(r, &packetWorkload{sp: spec{horizon: sim.Second}, tailPct: 90})
	},
	"dataplane-sharded2": func(r *run) error {
		return runPacket(r, &packetWorkload{sp: spec{horizon: sim.Second}, shards: 2, tailPct: 90})
	},
	"churn": func(r *run) error {
		return runPacket(r, &packetWorkload{sp: spec{churn: true, horizon: sim.Second}, tailPct: 95})
	},
	"rr-100k": runRR,
}

// run is one invocation: its options, the verdicts on every checked
// operation, and what it will print.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	start    time.Time
	tr       *tracer
	host     *hostSpeed

	attempted, failed int
	failures          []string
	e2e, layer        metricSet
	prov              map[string]any
}

// check counts one checked operation and records why it failed.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// checkErr counts one operation that returned err.
func (r *run) checkErr(err error, what string) {
	if err != nil {
		r.check(false, "%s: %v", what, err)
		return
	}
	r.check(true, "")
}

// setHostTimes sets the three host-time end-to-end metrics, scaled by the
// run's host speed, and records them unscaled in the provenance line.
func (r *run) setHostTimes(setupS, throughput, opMs float64) {
	f := r.host.factor()
	r.e2e.set("setup_s", setupS/f, "s")
	r.e2e.set("throughput", throughput*f, "1/s")
	r.e2e.set("op_ms.p50", opMs/f, "ms")
	r.host.record(r, map[string]float64{"setup_s": setupS, "throughput": throughput, "op_ms.p50": opMs})
}

// deadline is when the timed part of the run stops starting new work.
func (r *run) deadline() time.Time { return r.start.Add(r.seconds) }

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "dataplane, dataplane-sharded2, churn or rr-100k")
	seed := fl.Uint64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 30, "how long the timed part of the run lasts")
	trace := fl.Int("trace", 0, "1 runs the traced, per-layer variant")
	if err := fl.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)

	r := &run{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, e2e: metricSet{}, layer: metricSet{}, prov: map[string]any{}}
	runID := fmt.Sprintf("%s-seed%d-%d", r.workload, r.seed, time.Now().UnixNano())
	if r.trace {
		r.tr = newTracer(runID)
	}
	r.prov["run_id"] = runID
	r.prov["nproc"] = runtime.NumCPU()
	r.prov["gomaxprocs"] = procs
	r.prov["go"] = runtime.Version()
	r.prov["goarch"] = runtime.GOARCH
	r.prov["commit"], r.prov["source_sha256"] = provenance()
	r.prov["workload"], r.prov["seed"], r.prov["trace"] = r.workload, r.seed, r.trace

	r.start = time.Now()
	if err := fn(r); err != nil {
		r.check(false, "%v", err)
	}
	r.prov["wall_s"] = time.Since(r.start).Seconds()
	if r.tr != nil {
		r.prov["self_time"] = r.tr.selfTimes()
		path, err := r.tr.write(filepath.Join(".bench_build", "trace"))
		r.checkErr(err, "write trace")
		r.prov["trace_file"] = path
		r.layer.set("trace.spans", float64(len(r.tr.spans)), "count")
	}
	r.layer.set("fail_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
	r.prov["failures"] = r.failures

	out := metricSet{}
	list := endToEnd
	src := r.e2e
	if r.trace {
		list, src = perLayer, r.layer
	}
	var na []string
	for _, m := range list {
		v, ok := src[m.name]
		if !ok {
			na = append(na, m.name)
			v = metric{Value: 0}
		}
		v.Unit = m.unit
		out[m.name] = v
	}
	r.prov["not_applicable"] = na

	prov, err := json.Marshal(map[string]any{"provenance": r.prov})
	if err != nil {
		return err
	}
	res, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, max(r.attempted, 1), r.failed, out})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n%s\n", prov, res)
	return nil
}

// provenance names the code measured: the VCS revision when the binary was
// built inside a git checkout, and always a digest of the module sources,
// which identifies a checkout that is not a repository.
func provenance() (string, string) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return commit, fmt.Sprintf("%x", h.Sum(nil))
}

// digest is the short form of a fingerprint that results and golden.json
// carry.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%x", sum[:12])
}

//go:embed golden.json
var goldenJSON []byte

// golden holds recorded reference digests per workload and seed. A run at a
// recorded seed must reproduce its digest, so a change that alters
// simulated behaviour shows as a failed check; other seeds are checked only
// against their own in-run reference. Digests are per architecture, since
// floating-point contraction may differ between them.
type golden struct {
	Goarch  string                       `json:"goarch"`
	Digests map[string]map[string]string `json:"digests"`
}

// checkGolden compares d with the recorded digest for this run, if any.
func checkGolden(r *run, d string) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		r.check(false, "golden.json: %v", err)
		return
	}
	r.prov["digest"] = d
	want, ok := g.Digests[r.workload][fmt.Sprint(r.seed)]
	if !ok || g.Goarch != runtime.GOARCH {
		r.prov["golden"] = "not recorded"
		return
	}
	r.prov["golden"] = want
	r.check(d == want, "digest %s differs from recorded %s", d, want)
}

// errMismatch reports a fingerprint that differs from its reference.
var errMismatch = errors.New("fingerprint differs from reference")

// compare returns errMismatch, with the first differing line, when got is
// not want.
func compare(want, got string) error {
	if want == got {
		return nil
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Errorf("%w at line %d: want %q, got %q", errMismatch, i+1, w, g)
		}
	}
	return errMismatch
}

// selfTest proves the correctness check can fail: the run's own reference
// with one byte changed must be reported as a mismatch.
func selfTest(r *run, ref string) {
	bad := []byte(ref)
	bad[len(bad)/2] ^= 1
	r.check(compare(ref, ref) == nil && errors.Is(compare(ref, string(bad)), errMismatch),
		"self-test: a perturbed fingerprint was not reported")
}
