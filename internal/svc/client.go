package svc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"wsync/internal/shard"
)

// Client speaks the wsyncd wire protocol. The zero HTTP field uses
// http.DefaultClient.
type Client struct {
	Base string // server base URL, e.g. http://127.0.0.1:8080
	HTTP *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// call POSTs (or GETs, when in is nil and method says so) one JSON
// round trip, decoding the response into out. Non-2xx responses become
// errors carrying the server's message.
func (c *Client) call(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("svc: %w", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, strings.TrimSuffix(c.Base, "/")+path, body)
	if err != nil {
		return fmt.Errorf("svc: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("svc: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return statusError(method, path, resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("svc: decoding %s response: %w", path, err)
	}
	return nil
}

// Submit submits a sweep and returns its job id.
func (c *Client) Submit(req SubmitRequest) (*SubmitResponse, error) {
	var out SubmitResponse
	if err := c.call(http.MethodPost, "/v1/jobs", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Status fetches a job's state (including the merged report once done).
func (c *Client) Status(jobID string) (*JobStatus, error) {
	var out JobStatus
	if err := c.call(http.MethodGet, "/v1/jobs/"+jobID, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Poll registers worker and asks for an assignment; nil means no work.
func (c *Client) Poll(worker string) (*Assignment, error) {
	var out PollResponse
	if err := c.call(http.MethodPost, "/v1/poll", PollRequest{Worker: worker}, &out); err != nil {
		return nil, err
	}
	return out.Assignment, nil
}

// Push returns completed entries and reports the job's state after.
func (c *Client) Push(worker, jobID string, entries []shard.Entry) (string, error) {
	var out PushResponse
	err := c.call(http.MethodPost, "/v1/push", PushRequest{Worker: worker, JobID: jobID, Entries: entries}, &out)
	if err != nil {
		return "", err
	}
	return out.State, nil
}

// APIError is a non-2xx server answer, distinguishable from transport
// failures so callers can tell "the server said no" (permanent) from
// "the server is unreachable" (retry).
type APIError struct {
	StatusCode int
	Method     string
	Path       string
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("svc: %s %s: %d: %s", e.Method, e.Path, e.StatusCode, e.Message)
}

func statusError(method, path string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return &APIError{
		StatusCode: resp.StatusCode,
		Method:     method,
		Path:       path,
		Message:    strings.TrimSpace(string(msg)),
	}
}

// permanentErr reports whether err is a server verdict no retry can
// change (any 4xx — unknown job, bad cursor).
func permanentErr(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode/100 == 4
}

// errStreamTruncated marks an event stream that ended before the job's
// terminal event — a server drain or shutdown, worth resuming.
var errStreamTruncated = errors.New("svc: event stream ended before a terminal event")

// Events follows a job's SSE event stream, invoking fn for each event
// in order, starting after the given cursor. It returns nil once a
// terminal event (state done or failed) has been delivered, ctx.Err()
// on cancellation, errStreamTruncated if the server ended the stream
// early (drain), or a transport/API error. Callers wanting automatic
// resumption use Watch instead.
func (c *Client) Events(ctx context.Context, jobID string, after int, fn func(JobEvent)) error {
	path := "/v1/jobs/" + jobID + "/events"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(c.Base, "/")+path+"?after="+strconv.Itoa(after), nil)
	if err != nil {
		return fmt.Errorf("svc: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("svc: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return statusError(http.MethodGet, path, resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		case line == "":
			if len(data) == 0 {
				continue
			}
			var ev JobEvent
			if err := json.Unmarshal(data, &ev); err != nil {
				return fmt.Errorf("svc: decoding event: %w", err)
			}
			data = data[:0]
			fn(ev)
			if ev.State != StateRunning {
				return nil
			}
		}
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("svc: reading event stream: %w", err)
	}
	return errStreamTruncated
}

// Watch follows a job to its terminal state over the SSE stream,
// invoking fn for every event exactly once, in sequence order. When a
// stream fails for any reason but a 4xx answer, Watch waits out a
// jittered exponential backoff and resumes from the last delivered
// sequence number. Returns nil after a terminal event, ctx.Err() on
// cancellation, or the first permanent (4xx) error.
func (c *Client) Watch(ctx context.Context, jobID string, fn func(JobEvent)) error {
	after := 0
	backoff := Backoff{Base: 200 * time.Millisecond, Max: 5 * time.Second}
	for {
		resumedFrom := after
		err := c.Events(ctx, jobID, after, func(ev JobEvent) {
			if ev.Seq > after {
				after = ev.Seq
				fn(ev)
			}
		})
		switch {
		case err == nil:
			return nil
		case ctx.Err() != nil:
			return ctx.Err()
		case permanentErr(err):
			return err
		}
		if after > resumedFrom {
			backoff.Reset()
		}
		t := time.NewTimer(backoff.Next())
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}
