package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"wsync/internal/harness"
	"wsync/internal/multihop"
	"wsync/internal/obs"
	"wsync/internal/rendezvous"
	"wsync/internal/rng"
	"wsync/internal/shard"
	"wsync/internal/sim"
	"wsync/internal/svc"
)

// serviceSelection is the sweep-service job: quick-tier experiments that
// together run all three engines (T10c and T18b on sim, X7 and X9 on
// multihop, R2 and R3 on rendezvous), listed in catalogue order. On a
// 2-core Xeon it computes in about 100 ms.
var serviceSelection = []string{"T10c", "T18b", "X7", "X9", "R2", "R3"}

// servicePoll is the worker's base idle-poll interval. wsyncd defaults
// to 500 ms; 100 ms keeps a fresh job near 200 ms, so that 100 of them
// fit in one run while queue wait behind the idle backoff is still about
// a third of each job.
const servicePoll = 100 * time.Millisecond

// cachedPerFresh is the number of identical resubmits after each fresh
// job; each one is served from the result cache.
const cachedPerFresh = 2

// jobTimeout bounds one job from submit to report; a job that outlives
// it counts as failed.
const jobTimeout = 60 * time.Second

// jobSeed is the sweep seed of fresh job i. Every fresh job gets a new
// seed, so it misses the result cache.
func jobSeed(seed uint64, i int) uint64 {
	return rng.New(seed).Split(uint64(i) + 1).Uint64()
}

// leaseLog is a slog handler that keeps the time of the first "lease
// granted" record per job: the end of the job's queue wait. The server
// puts the job id on the record itself, so attributes added through
// With are not needed and are dropped.
type leaseLog struct {
	mu    sync.Mutex
	first map[string]time.Time
}

func (l *leaseLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *leaseLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *leaseLog) WithGroup(string) slog.Handler            { return l }

func (l *leaseLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "lease granted" {
		return nil
	}
	r.Attrs(func(a slog.Attr) bool {
		if a.Key != "job" {
			return true
		}
		l.mu.Lock()
		if _, ok := l.first[a.Value.String()]; !ok {
			l.first[a.Value.String()] = r.Time
		}
		l.mu.Unlock()
		return false
	})
	return nil
}

func (l *leaseLog) granted(job string) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.first[job]
	return t, ok
}

// serviceSession is an in-process wsyncd: a server on a loopback
// listener, one worker goroutine, and one client.
type serviceSession struct {
	seed    uint64
	srv     *svc.Server
	hs      *http.Server
	served  chan error
	stop    context.CancelFunc
	worker  chan error
	client  *svc.Client
	sreg    *obs.Registry
	wreg    *obs.Registry
	leases  *leaseLog
	want    []byte // job 0's report from a direct harness run, volatile fields zeroed
	rounds0 uint64 // job 0's node-rounds from the direct run
}

// openService starts the service and computes job 0's report directly
// through the harness, which later checks the served copy. Its wall time
// is the set-up time. The direct
// run happens before any job is submitted, so no worker experiment
// overlaps it: node_rounds is sampled from process-global engine
// counters, and an overlap would show as a mismatch.
func openService(seed uint64, traced bool) (session, time.Duration, error) {
	start := time.Now()
	want, rounds, err := directReport(jobSeed(seed, 0))
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("sweep-service: listen: %w", err)
	}
	s := &serviceSession{
		seed:    seed,
		sreg:    obs.NewRegistry(),
		wreg:    obs.NewRegistry(),
		leases:  &leaseLog{first: make(map[string]time.Time)},
		served:  make(chan error, 1),
		worker:  make(chan error, 1),
		want:    want,
		rounds0: rounds,
	}
	opts := svc.Options{Metrics: s.sreg}
	if traced {
		opts.Log = slog.New(s.leases)
	}
	s.srv = svc.NewServer(opts)
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	s.client = &svc.Client{Base: base, HTTP: &http.Client{Transport: &http.Transport{}}}
	ctx, cancel := context.WithCancel(context.Background())
	s.stop = cancel
	go func() {
		s.worker <- svc.RunWorker(ctx, svc.WorkerOptions{
			Server:       base,
			Name:         "perfbench-worker",
			PollInterval: servicePoll,
			Parallelism:  runtime.NumCPU(),
			Metrics:      s.wreg,
		})
	}()
	return s, time.Since(start), nil
}

// directReport runs the job selection in process, as wexp -json would,
// and returns the encoded report with volatile fields zeroed plus the
// total node-rounds. The report is decoded and re-encoded so it compares
// byte for byte with a report that crossed the wire.
func directReport(seed uint64) ([]byte, uint64, error) {
	opt := harness.Options{Seed: seed, Quick: true, Parallelism: runtime.NumCPU()}
	rep := &shard.Report{Schema: shard.Schema, EffectiveTrials: opt.EffectiveTrials(), Seed: seed, Quick: true}
	var total uint64
	for _, id := range serviceSelection {
		e, ok := harness.ByID(id)
		if !ok {
			return nil, 0, fmt.Errorf("sweep-service: unknown experiment %s", id)
		}
		before := engineNodeRounds()
		tbl, err := e.Run(opt)
		if err != nil {
			return nil, 0, fmt.Errorf("sweep-service: direct run of %s: %w", id, err)
		}
		n := engineNodeRounds() - before
		total += n
		rep.Experiments = append(rep.Experiments, shard.Entry{Table: tbl, NodeRounds: n})
	}
	var buf bytes.Buffer
	if err := rep.Encode(&buf); err != nil {
		return nil, 0, err
	}
	decoded, err := shard.Decode(buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	want, err := canonical(decoded)
	return want, total, err
}

func engineNodeRounds() uint64 {
	return sim.TotalNodeRounds() + multihop.TotalNodeRounds() + rendezvous.TotalNodeRounds()
}

// canonical encodes a report with its volatile fields zeroed.
func canonical(r *shard.Report) ([]byte, error) {
	r.ZeroVolatile()
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		return nil, fmt.Errorf("sweep-service: encoding report: %w", err)
	}
	return buf.Bytes(), nil
}

// jobTimes marks one job's client-side phases: submit sent, submit
// answered, terminal event seen, report fetched.
type jobTimes [4]time.Time

// job submits req, follows it to its terminal event, and fetches the
// report.
func (s *serviceSession) job(ctx context.Context, req svc.SubmitRequest) (_ *svc.SubmitResponse, _ *svc.JobStatus, at jobTimes, _ error) {
	at[0] = time.Now()
	defer func() {
		if at[3].IsZero() {
			at[3] = time.Now()
		}
	}()
	sub, err := s.client.Submit(req)
	at[1] = time.Now()
	if err != nil {
		return nil, nil, at, err
	}
	var last svc.JobEvent
	if err := s.client.Watch(ctx, sub.JobID, func(ev svc.JobEvent) { last = ev }); err != nil {
		return sub, nil, at, fmt.Errorf("watching %s: %w", sub.JobID, err)
	}
	at[2] = time.Now()
	st, err := s.client.Status(sub.JobID)
	at[3] = time.Now()
	if err != nil {
		return sub, nil, at, err
	}
	if last.State != svc.StateDone || st.State != svc.StateDone || st.Report == nil {
		return sub, st, at, fmt.Errorf("job %s ended in state %q (%s)", sub.JobID, st.State, st.Error)
	}
	return sub, st, at, nil
}

// traceJob records a job's span, named name, with its client-side phases
// as children, and samples submit and fetch latency.
func traceJob(tr *tracer, name string, op int, at jobTimes) int {
	id := tr.record(0, name, op, at[0], at[3], 1, at[3].Sub(at[0]))
	for k, phase := range []string{"svc.submit", "svc.watch", "svc.fetch"} {
		tr.record(id, phase, op, at[k], at[k+1], 1, at[k+1].Sub(at[k]))
	}
	tr.sample("svc.submit_ms", ms(at[1].Sub(at[0])))
	tr.sample("svc.fetch_ms", ms(at[3].Sub(at[2])))
	return id
}

// run is one sweep-service operation: fresh job i, then cachedPerFresh
// resubmits of it, each of which must be served whole from the cache
// and match the fresh report byte for byte after ZeroVolatile.
func (s *serviceSession) run(i, _ int, tr *tracer) opResult {
	var out opResult
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	req := svc.SubmitRequest{Seed: jobSeed(s.seed, i), Quick: true, Run: serviceSelection}

	sub, st, at, err := s.job(ctx, req)
	out.elapsed = at[3].Sub(at[0])
	out.attempted = 1
	if err != nil {
		out.err = fmt.Errorf("sweep-service: fresh job %d: %w", i, err)
		out.failed = 1
		return out
	}
	if tr != nil {
		id := traceJob(tr, "svc.job", i, at)
		if leased, ok := s.leases.granted(sub.JobID); ok {
			tr.record(id, "svc.queue_wait", i, at[0], leased, 1, leased.Sub(at[0]))
			tr.sample("svc.queue_wait_s", leased.Sub(at[0]).Seconds())
		}
	}
	for _, e := range st.Report.Experiments {
		out.nodeRounds += e.NodeRounds
	}
	fresh, err := canonical(st.Report)
	switch {
	case err != nil:
		out.err = err
	case sub.Cached != 0 || len(st.Report.Experiments) != len(serviceSelection):
		out.err = fmt.Errorf("sweep-service: fresh job %d had %d cached of %d, report holds %d experiments", i, sub.Cached, sub.Total, len(st.Report.Experiments))
	case i == 0 && (!bytes.Equal(fresh, s.want) || out.nodeRounds != s.rounds0):
		out.err = errors.New("sweep-service: served report of job 0 differs from the direct harness run")
	}
	if out.err != nil {
		out.failed = 1
	}
	out.digest = digest(fresh)

	for k := 0; k < cachedPerFresh; k++ {
		out.attempted++
		csub, cst, cat, err := s.job(ctx, req)
		if err == nil {
			var got []byte
			got, err = canonical(cst.Report)
			switch {
			case err != nil:
			case csub.Cached != csub.Total:
				err = fmt.Errorf("%d of %d experiments cached", csub.Cached, csub.Total)
			case !bytes.Equal(got, fresh):
				err = errors.New("report differs from the fresh job's")
			}
		}
		if err != nil {
			out.failed++
			if out.err == nil {
				out.err = fmt.Errorf("sweep-service: resubmit %d of job %d: %w", k, i, err)
			}
		}
		if tr != nil {
			traceJob(tr, "svc.cached_job", i, cat)
			tr.sample("svc.cached_job_ms", ms(cat[3].Sub(cat[0])))
		}
	}
	return out
}

// layers adds the service's per-layer totals, read from the server's and
// the worker's metric registries.
func (s *serviceSession) layers(tr *tracer) {
	counter := func(reg *obs.Registry, name string) float64 { return float64(reg.Counter(name, "").Value()) }
	hist := func(reg *obs.Registry, name string) *obs.Histogram {
		return reg.Histogram(name, "", obs.DefTimeBuckets)
	}
	tr.add("harness.experiment_s", hist(s.wreg, "wsync_worker_experiment_seconds").Sum())
	tr.add("harness.experiments", counter(s.wreg, "wsync_worker_experiments_total"))
	tr.add("harness.node_rounds", counter(s.wreg, "wsync_worker_node_rounds_total"))
	push := hist(s.sreg, "wsync_push_latency_seconds")
	tr.add("svc.push_s", push.Sum())
	tr.add("svc.pushes", float64(push.Count()))
	polls := counter(s.wreg, "wsync_worker_polls_total")
	tr.add("svc.polls", polls)
	if polls > 0 {
		tr.add("svc.poll_useful_frac", counter(s.wreg, "wsync_worker_assignments_total")/polls)
	}
	hits, misses := counter(s.sreg, "wsync_cache_hits_total"), counter(s.sreg, "wsync_cache_misses_total")
	if hits+misses > 0 {
		tr.add("svc.cache_hit_frac", hits/(hits+misses))
	}
	tr.add("svc.replans", counter(s.sreg, "wsync_replans_total"))
}

// close stops the worker, drains and shuts down the server, and waits
// for both goroutines to return.
func (s *serviceSession) close() {
	s.stop()
	<-s.worker
	s.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout leaves connections to process exit; nothing else depends on it
	<-s.served
	s.srv.Close()
	s.client.HTTP.CloseIdleConnections()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
