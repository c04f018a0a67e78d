package svc_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wsync/internal/shard"
	"wsync/internal/svc"
)

// TestEventStreamEndToEnd is the SSE acceptance path: a watched job
// emits its transitions in order — "submitted" first, a terminal "done"
// last, sequence numbers strictly increasing — and the terminal event
// agrees with what GET /v1/jobs/{id} reports.
func TestEventStreamEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	_, client := startServer(t, svc.Options{Log: testLogger(t)})
	startWorker(t, client, "w1")

	sub, err := client.Submit(svc.SubmitRequest{Seed: 11, Trials: 1, Quick: true, Run: []string{"F1", "L2"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	var events []svc.JobEvent
	if err := client.Watch(ctx, sub.JobID, func(ev svc.JobEvent) {
		events = append(events, ev)
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("watch returned without delivering any events")
	}
	if events[0].Kind != svc.EventSubmitted {
		t.Errorf("first event kind = %q, want %q", events[0].Kind, svc.EventSubmitted)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("event sequence not increasing: %d after %d", events[i].Seq, events[i-1].Seq)
		}
	}
	last := events[len(events)-1]
	if last.Kind != svc.EventDone || last.State != svc.StateDone {
		t.Fatalf("terminal event = %+v, want kind done", last)
	}
	for _, ev := range events[:len(events)-1] {
		if ev.State != svc.StateRunning {
			t.Fatalf("non-terminal event %+v carries terminal state", ev)
		}
	}
	st, err := client.Status(sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != last.State || st.Done != last.Done || st.Total != last.Total || st.Retries != last.Retries {
		t.Errorf("terminal event %+v disagrees with status %+v", last, st)
	}
}

// TestEventsCursor pins the stream's ?after cursor on a running job that
// no worker serves: from cursor 0 the stream delivers exactly the
// submitted event and then stays open until the caller gives up; from
// cursor 1 it delivers nothing. An unknown job answers 404 and a bad
// cursor 400.
func TestEventsCursor(t *testing.T) {
	_, client := startServer(t, svc.Options{})
	sub, err := client.Submit(svc.SubmitRequest{Seed: 21, Trials: 1, Quick: true, Run: []string{"F1"}})
	if err != nil {
		t.Fatal(err)
	}
	follow := func(jobID string, after int) ([]svc.JobEvent, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		var evs []svc.JobEvent
		err := client.Events(ctx, jobID, after, func(ev svc.JobEvent) { evs = append(evs, ev) })
		if errors.Is(err, ctx.Err()) {
			err = nil
		} else if err == nil {
			err = errors.New("stream ended without the context expiring")
		}
		return evs, err
	}

	evs, err := follow(sub.JobID, 0)
	if err != nil {
		t.Fatalf("after=0: %v", err)
	}
	if len(evs) != 1 || evs[0].Kind != svc.EventSubmitted || evs[0].Seq != 1 {
		t.Fatalf("after=0 events = %+v, want one submitted event with seq 1", evs)
	}

	evs, err = follow(sub.JobID, 1)
	if err != nil {
		t.Fatalf("after=1: %v", err)
	}
	if len(evs) != 0 {
		t.Fatalf("tip cursor delivered events: %+v", evs)
	}

	for _, c := range []struct {
		jobID  string
		after  int
		status int
	}{
		{"nope", 0, http.StatusNotFound},
		{sub.JobID, -1, http.StatusBadRequest},
	} {
		_, err := follow(c.jobID, c.after)
		var apiErr *svc.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != c.status {
			t.Errorf("events(%s, after=%d) err = %v, want status %d", c.jobID, c.after, err, c.status)
		}
	}
}

// TestWatchResumes follows a job whose event stream fails mid-job: the
// first events request answers 503 and the second is cut right after its
// first event. Watch must resume from its cursor each time, deliver every
// event of the job's log exactly once and in order, and return nil on
// done.
func TestWatchResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	req := svc.SubmitRequest{Seed: 13, Trials: 1, Quick: true, Run: []string{"F1", "L2"}}
	entries := directReport(t, req).Experiments

	s := svc.NewServer(svc.Options{Log: testLogger(t)})
	flaky := &flakyEvents{next: s.Handler()}
	hs := httptest.NewServer(flaky)
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	client := &svc.Client{Base: hs.URL}
	sub, err := client.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// seen is unbuffered, so Watch cannot return while an event is
	// still undelivered.
	seen := make(chan svc.JobEvent)
	watched := make(chan error, 1)
	go func() {
		watched <- client.Watch(ctx, sub.JobID, func(ev svc.JobEvent) {
			select {
			case seen <- ev:
			case <-ctx.Done():
			}
		})
	}()
	next := func() svc.JobEvent {
		t.Helper()
		select {
		case ev := <-seen:
			return ev
		case err := <-watched:
			t.Fatalf("watch returned %v before the job's next event", err)
		case <-ctx.Done():
			t.Fatal("timed out waiting for an event")
		}
		return svc.JobEvent{}
	}

	// Each push emits one event; the first lands on the stream the
	// wrapper cuts, so Watch has to resume to see it.
	got := []svc.JobEvent{next()}
	for _, e := range entries {
		if _, err := client.Push("w1", sub.JobID, []shard.Entry{e}); err != nil {
			t.Fatal(err)
		}
		got = append(got, next())
	}
	if err := <-watched; err != nil {
		t.Fatalf("watch: %v", err)
	}
	if n := flaky.requests.Load(); n != 3 {
		t.Errorf("watch made %d events requests, want 3 (503, cut stream, resumed stream)", n)
	}

	var want []svc.JobEvent
	if err := client.Events(ctx, sub.JobID, 0, func(ev svc.JobEvent) { want = append(want, ev) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("watch delivered %+v, want the job's log %+v", got, want)
	}
	if got[0].Kind != svc.EventSubmitted || got[1].Kind != svc.EventProgress || got[2].Kind != svc.EventDone {
		t.Fatalf("event kinds = %s, %s, %s; want submitted, progress, done", got[0].Kind, got[1].Kind, got[2].Kind)
	}
}

// flakyEvents fronts the service the way a bad network would: the first
// GET of an events stream answers 503, the second is cut after its first
// frame, and later ones pass through.
type flakyEvents struct {
	next     http.Handler
	requests atomic.Int32
}

func (f *flakyEvents) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasSuffix(r.URL.Path, "/events") {
		f.next.ServeHTTP(w, r)
		return
	}
	switch f.requests.Add(1) {
	case 1:
		http.Error(w, "try again later", http.StatusServiceUnavailable)
	case 2:
		f.next.ServeHTTP(&cutAfterFirstFrame{ResponseWriter: w}, r)
	default:
		f.next.ServeHTTP(w, r)
	}
}

// cutAfterFirstFrame delivers the first SSE frame written to it and
// aborts the connection on the next write.
type cutAfterFirstFrame struct {
	http.ResponseWriter
	frames int
}

func (c *cutAfterFirstFrame) Write(p []byte) (int, error) {
	if c.frames > 0 {
		panic(http.ErrAbortHandler)
	}
	c.frames++
	n, err := c.ResponseWriter.Write(p)
	if err == nil {
		err = http.NewResponseController(c.ResponseWriter).Flush()
	}
	return n, err
}

func (c *cutAfterFirstFrame) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// TestWatchUnknownJobIsPermanent pins that Watch fails fast on a 404
// instead of retrying forever.
func TestWatchUnknownJobIsPermanent(t *testing.T) {
	_, client := startServer(t, svc.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := client.Watch(ctx, "nope", func(svc.JobEvent) {})
	if err == nil || ctx.Err() != nil {
		t.Fatalf("watch err = %v (ctx %v), want a prompt 404", err, ctx.Err())
	}
	if !strings.Contains(err.Error(), "404") {
		t.Errorf("err %v does not carry the status", err)
	}
}

// TestHealthzDraining pins the drain protocol: 200 ok before, 503 with
// a "draining" JSON body after BeginDrain, and open event streams end
// so a graceful shutdown is not held hostage by a subscriber.
func TestHealthzDraining(t *testing.T) {
	s, client := startServer(t, svc.Options{})

	get := func() (int, svc.Health) {
		t.Helper()
		resp, err := http.Get(client.Base + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h svc.Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}

	if code, h := get(); code != http.StatusOK || h.Status != svc.HealthOK {
		t.Fatalf("healthz before drain = %d %+v, want 200 ok", code, h)
	}

	// A live SSE subscriber on a running job.
	sub, err := client.Submit(svc.SubmitRequest{Seed: 31, Trials: 1, Quick: true, Run: []string{"F1"}})
	if err != nil {
		t.Fatal(err)
	}
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- client.Events(context.Background(), sub.JobID, 0, func(svc.JobEvent) {})
	}()
	// Give the stream a moment to attach before draining.
	time.Sleep(50 * time.Millisecond)

	s.BeginDrain()
	if code, h := get(); code != http.StatusServiceUnavailable || h.Status != svc.HealthDraining {
		t.Fatalf("healthz after drain = %d %+v, want 503 draining", code, h)
	}
	select {
	case err := <-streamDone:
		if err == nil {
			t.Error("stream on a running job ended nil; want a truncation error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream did not end after BeginDrain")
	}
}

// TestMetricsEndpoint pins that the server's registry is mounted on the
// job mux and counts submissions without any worker involvement.
func TestMetricsEndpoint(t *testing.T) {
	_, client := startServer(t, svc.Options{})
	if _, err := client.Submit(svc.SubmitRequest{Seed: 41, Trials: 1, Quick: true, Run: []string{"F1"}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(client.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"wsync_jobs_submitted_total 1",
		"wsync_jobs_running 1",
		"wsync_cache_misses_total 1",
		"# TYPE wsync_push_latency_seconds histogram",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}
