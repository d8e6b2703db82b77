package server

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stablerank"
)

// submitJob posts a /v1/jobs body and returns the decoded response.
func submitJob(t *testing.T, ts *httptest.Server, body string) (jobResponse, int) {
	t.Helper()
	var j jobResponse
	code, _ := postJSON(t, ts.URL, "/v1/jobs", body, &j)
	return j, code
}

// pollJob polls GET /v1/jobs/{id} until the job leaves queued/running or the
// deadline passes.
func pollJob(t *testing.T, ts *httptest.Server, id string, deadline time.Duration) jobResponse {
	t.Helper()
	var j jobResponse
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		code, _ := get(t, ts, "/v1/jobs/"+id, &j)
		if code != http.StatusOK {
			t.Fatalf("job poll = %d", code)
		}
		if j.Status != string(jobQueued) && j.Status != string(jobRunning) {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s still %s after %s", id, j.Status, deadline)
	return j
}

// awaitJob polls GET /v1/jobs/{id} until cond holds for the job, failing the
// test after 10 seconds.
func awaitJob(t *testing.T, ts *httptest.Server, id string, cond func(jobResponse) bool) {
	t.Helper()
	stop := time.Now().Add(10 * time.Second)
	for {
		var j jobResponse
		if code, _ := get(t, ts, "/v1/jobs/"+id, &j); code != http.StatusOK {
			t.Fatalf("job poll = %d", code)
		}
		if cond(j) {
			return
		}
		if time.Now().After(stop) {
			t.Fatalf("job %s still %s after 10s", id, j.Status)
		}
		time.Sleep(time.Millisecond)
	}
}

// deleteJob issues DELETE /v1/jobs/{id} and returns the status code.
func deleteJob(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// addDeepDataset registers a 4D dataset whose exhaustive enumeration runs
// far longer than any test deadline — the workload for cancellation tests.
func addDeepDataset(t *testing.T, s *Server) {
	t.Helper()
	ds := stablerank.Diamonds(rand.New(rand.NewSource(7)), 120)
	deep, err := ds.Project(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Add("deep", deep); err != nil {
		t.Fatal(err)
	}
}

// TestJobLifecycle submits a job, polls it to completion and reads the
// result; the result matches the synchronous endpoint's.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := `{"dataset":"ind3","samples":5000,"queries":[{"op":"verify","weights":[1,1,1]},{"op":"toph","h":3}]}`

	j, code := submitJob(t, ts, body)
	if code != http.StatusAccepted || j.ID == "" || j.Status != string(jobQueued) {
		t.Fatalf("submit = %d %+v", code, j)
	}
	done := pollJob(t, ts, j.ID, 10*time.Second)
	if done.Status != string(jobDone) || done.Result == nil {
		t.Fatalf("job finished as %+v", done)
	}
	if len(done.Result.Results) != 2 || done.Result.Results[0].Stability == nil {
		t.Fatalf("job result = %+v", done.Result)
	}

	// Bit-identical to the synchronous answer (same analyzer key).
	var sync queryResponse
	if code, _ := postJSON(t, ts.URL, "/v1/query", body, &sync); code != http.StatusOK {
		t.Fatalf("sync query = %d", code)
	}
	if *sync.Results[0].Stability != *done.Result.Results[0].Stability {
		t.Errorf("job stability %v != sync %v", *done.Result.Results[0].Stability, *sync.Results[0].Stability)
	}

	// Unknown job id.
	if code, _ := get(t, ts, "/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown job = %d", code)
	}
	// Validation failures surface synchronously at submit time.
	if _, code := submitJob(t, ts, `{"dataset":"nope","queries":[{"op":"toph","h":1}]}`); code != http.StatusNotFound {
		t.Errorf("bad submit = %d", code)
	}
	if _, code := submitJob(t, ts, `{"dataset":"ind3","queries":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty submit = %d", code)
	}
	// Jobs allow open enumeration (unlike the sync endpoint).
	j2, code := submitJob(t, ts, `{"dataset":"fig1","queries":[{"op":"enumerate"}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("open enumerate job = %d", code)
	}
	done2 := pollJob(t, ts, j2.ID, 10*time.Second)
	if done2.Status != string(jobDone) || len(done2.Result.Results[0].Rankings) != 11 {
		t.Fatalf("open enumerate job = %+v", done2)
	}
	// DELETE on a finished job discards the record.
	if code := deleteJob(t, ts, j2.ID); code != http.StatusOK {
		t.Fatalf("delete finished = %d", code)
	}
	if code, _ := get(t, ts, "/v1/jobs/"+j2.ID, nil); code != http.StatusNotFound {
		t.Errorf("deleted job still retrievable: %d", code)
	}
}

// TestJobCancellation cancels a long-running job via DELETE and checks the
// worker comes free promptly.
func TestJobCancellation(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.JobWorkers = 1
		c.DefaultSampleCount = 30_000
	})
	addDeepDataset(t, s)

	// An exhaustive 4D enumeration: far too deep to finish quickly.
	j, code := submitJob(t, ts, `{"dataset":"deep","queries":[{"op":"enumerate"}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	time.Sleep(50 * time.Millisecond) // let the worker take it
	if code := deleteJob(t, ts, j.ID); code != http.StatusOK {
		t.Fatalf("delete = %d", code)
	}
	var got jobResponse
	if code, _ := get(t, ts, "/v1/jobs/"+j.ID, &got); code != http.StatusOK {
		t.Fatalf("poll after cancel = %d", code)
	}
	if got.Status != string(jobCancelled) {
		t.Fatalf("job after DELETE = %s, want cancelled", got.Status)
	}
	// The single worker must be released promptly: a follow-up job runs to
	// completion within the poll deadline.
	j2, code := submitJob(t, ts, `{"dataset":"fig1","queries":[{"op":"toph","h":1}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("post-cancel submit = %d", code)
	}
	done := pollJob(t, ts, j2.ID, 10*time.Second)
	if done.Status != string(jobDone) {
		t.Fatalf("post-cancel job = %+v", done)
	}
}

// TestJobQueueFullAndTTL checks the 503 on a saturated queue and the TTL
// purge of finished jobs.
func TestJobQueueFullAndTTL(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.JobWorkers = 1
		c.JobQueueSize = 1
		c.JobTTL = 50 * time.Millisecond
		c.DefaultSampleCount = 30_000
	})
	addDeepDataset(t, s)

	// One long job occupies the worker, one fills the queue; the third is
	// rejected 503.
	long := `{"dataset":"deep","queries":[{"op":"enumerate"}]}`
	j1, code := submitJob(t, ts, long)
	if code != http.StatusAccepted {
		t.Fatalf("submit 1 = %d", code)
	}
	// Wait until the worker has taken j1, so j2 lands in the queue slot.
	awaitJob(t, ts, j1.ID, func(j jobResponse) bool { return j.Status == string(jobRunning) })
	j2, code := submitJob(t, ts, long)
	if code != http.StatusAccepted {
		t.Fatalf("submit 2 = %d", code)
	}
	if _, code = submitJob(t, ts, long); code != http.StatusServiceUnavailable {
		t.Errorf("submit to a full queue = %d, want 503", code)
	}
	// Cancel the queued job (it must never run) and the running one (the
	// worker comes free), then a fast job completes and its record expires
	// after the TTL.
	if code := deleteJob(t, ts, j2.ID); code != http.StatusOK {
		t.Fatalf("delete queued = %d", code)
	}
	if code := deleteJob(t, ts, j1.ID); code != http.StatusOK {
		t.Fatalf("delete running = %d", code)
	}
	// A cancelled running job records its finish time once the worker has
	// returned from it; only then is the worker free to drain the queue.
	awaitJob(t, ts, j1.ID, func(j jobResponse) bool { return j.Finished != nil })
	quick, code := submitJob(t, ts, `{"dataset":"fig1","queries":[{"op":"toph","h":1}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("quick submit = %d", code)
	}
	done := pollJob(t, ts, quick.ID, 10*time.Second)
	if done.Status != string(jobDone) {
		t.Fatalf("quick job = %+v", done)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ := get(t, ts, "/v1/jobs/"+quick.ID, nil)
		if code == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReservedDatasetName checks a dataset cannot shadow the /v1/jobs
// routes: registration rejects the reserved name instead of creating a
// dataset unreachable through the GET endpoints.
func TestReservedDatasetName(t *testing.T) {
	s, ts := newTestServer(t, nil)
	resp, err := http.Post(ts.URL+"/datasets/jobs", "text/csv",
		strings.NewReader("id,a,b\nx,1,2\ny,2,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("registering dataset %q = %d, want 400", "jobs", resp.StatusCode)
	}
	if err := s.Registry().Add("jobs", stablerank.Figure1()); err == nil {
		t.Error("Registry.Add accepted the reserved name \"jobs\"")
	}
}

// TestStatszJobsAndStreams checks the new observability counters.
func TestStatszJobsAndStreams(t *testing.T) {
	_, ts := newTestServer(t, nil)
	j, code := submitJob(t, ts, `{"dataset":"fig1","queries":[{"op":"toph","h":2}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	pollJob(t, ts, j.ID, 10*time.Second)
	if code, _ := get(t, ts, "/v1/query/stream?dataset=fig1&op=toph&h=3", nil); code != http.StatusOK {
		t.Fatalf("stream = %d", code)
	}
	var stats struct {
		Jobs struct {
			Workers   int   `json:"workers"`
			Completed int64 `json:"completed"`
			Active    int   `json:"active"`
			Queued    int   `json:"queued"`
		} `json:"jobs"`
		StreamedRows int64 `json:"streamed_rows"`
	}
	if code, _ := get(t, ts, "/statsz", &stats); code != http.StatusOK {
		t.Fatalf("statsz = %d", code)
	}
	if stats.Jobs.Workers < 1 || stats.Jobs.Completed < 1 {
		t.Errorf("jobs stats = %+v", stats.Jobs)
	}
	if stats.StreamedRows < 3 {
		t.Errorf("streamed_rows = %d, want >= 3", stats.StreamedRows)
	}
}
