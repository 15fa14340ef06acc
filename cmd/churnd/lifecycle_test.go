package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"telcochurn/internal/core"
)

// childEnv, set to 1, makes the test binary run churnd's main instead of
// the tests, so the process-level tests exec the code under test without
// building it.
const childEnv = "CHURND_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// churndProc is one churnd child process and everything it has logged.
type churndProc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has exited
	err  error         // Wait's result, set before done closes

	mu  sync.Mutex
	log strings.Builder
}

// startChurnd execs churnd with args on a kernel-picked loopback port and
// returns once the address it logs answers /readyz. The process is killed
// and reaped when the test ends, whatever path ends it.
func startChurnd(t *testing.T, args ...string) *churndProc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	p := &churndProc{done: make(chan struct{})}
	p.cmd = exec.Command(exe, append(args, "-addr", "127.0.0.1:0")...)
	p.cmd.Env = append(os.Environ(), childEnv+"=1")
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.done
	})
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.log.WriteString(line + "\n")
			p.mu.Unlock()
			if strings.Contains(line, "churnd: serving ") {
				addr <- line[strings.LastIndex(line, " on ")+4:]
			}
		}
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	select {
	case a := <-addr:
		p.url = "http://" + a
	case <-p.done:
		t.Fatalf("churnd exited before serving (%v):\n%s", p.err, p.logged())
	case <-time.After(2 * time.Minute):
		t.Fatalf("churnd never logged its address:\n%s", p.logged())
	}
	if status, body, _ := getJSON(t, p.url+"/readyz"); status != http.StatusOK {
		t.Fatalf("readyz at the logged address = %d %v", status, body)
	}
	return p
}

// logged returns everything the process has written to stderr so far.
func (p *churndProc) logged() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.String()
}

// waitLog waits until the process has logged want.
func (p *churndProc) waitLog(t *testing.T, want string) {
	t.Helper()
	for end := time.Now().Add(30 * time.Second); !strings.Contains(p.logged(), want); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("churnd never logged %q:\n%s", want, p.logged())
		}
	}
}

// exited reports whether the process has exited within d.
func (p *churndProc) exited(d time.Duration) bool {
	select {
	case <-p.done:
		return true
	case <-time.After(d):
		return false
	}
}

// scoreAll scores every customer /v1/customers lists in one request and
// returns the ids and their served scores.
func scoreAll(t *testing.T, client *http.Client, url string) ([]int64, []float64) {
	t.Helper()
	resp, err := client.Get(url + "/v1/customers")
	if err != nil {
		t.Fatal(err)
	}
	var cust struct {
		Count int     `json:"count"`
		IDs   []int64 `json:"ids"`
	}
	err = json.NewDecoder(resp.Body).Decode(&cust)
	resp.Body.Close()
	if err != nil || len(cust.IDs) == 0 || len(cust.IDs) != cust.Count {
		t.Fatalf("/v1/customers: %d of %d ids, %v", len(cust.IDs), cust.Count, err)
	}
	body, _ := json.Marshal(scoreRequest{IDs: cust.IDs})
	resp, err = client.Post(url+"/v1/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr scoreResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(sr.Scores) != len(cust.IDs) {
		t.Fatalf("score all: status %d, %d scores for %d ids, %v", resp.StatusCode, len(sr.Scores), len(cust.IDs), err)
	}
	return cust.IDs, sr.Scores
}

// TestProcessCrashRestartDrain is churnd's lifecycle as a process: boot
// from flags, SIGKILL while event posts are in flight, a tail segment torn
// by one byte (the write a crash can leave), a restart that quarantines it
// and still serves every surviving event, and a SIGTERM that drains an
// in-flight request before exiting 0. Every score served after the restart
// has the bits a from-scratch build gives over the merged warehouse.
func TestProcessCrashRestartDrain(t *testing.T) {
	whDir, artifact, want := makeWorld(t)
	args := []string{"-artifact", artifact, "-warehouse", whDir, "-fsync", "always"}
	client := &http.Client{Timeout: 30 * time.Second}

	// A poster keeps event batches in flight until the kill lands.
	first := startChurnd(t, args...)
	var posted atomic.Int64
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for i := 0; ; i++ {
			ids := []int64{want.IDs[(2*i)%len(want.IDs)], want.IDs[(2*i+1)%len(want.IDs)]}
			resp, err := client.Post(first.url+"/v1/events", "application/json", strings.NewReader(burstBatch(ids)))
			if err != nil {
				return // the kill
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("ingest %d: status %d", i, resp.StatusCode)
				return
			}
			posted.Add(1)
		}
	}()
	for end := time.Now().Add(time.Minute); posted.Load() < 6; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("only %d batches posted:\n%s", posted.Load(), first.logged())
		}
	}
	if err := first.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	<-first.done
	<-stopped

	// Tear the tail: the crash got through the payload but not the CRC.
	dir := filepath.Join(whDir, ".events")
	segs, err := filepath.Glob(filepath.Join(dir, "seq=*.tev"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("%d event segments landed before the kill (%v), want >= 2", len(segs), err)
	}
	sort.Strings(segs)
	tail := segs[len(segs)-1]
	fi, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tail, fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	// Boot logs the quarantine before the address it serves on.
	second := startChurnd(t, args...)
	if !strings.Contains(second.logged(), "churnd: quarantined corrupt event-log tail") {
		t.Errorf("restart logged no quarantine:\n%s", second.logged())
	}
	if _, metrics, _ := getJSON(t, second.url+"/metrics"); metrics["events_quarantined"] != float64(1) {
		t.Errorf("events_quarantined = %v after the restart, want 1", metrics["events_quarantined"])
	}
	if _, err := os.Stat(tail + ".quarantine"); err != nil {
		t.Errorf("quarantine sidecar missing: %v", err)
	}
	if _, err := os.Stat(tail); !os.IsNotExist(err) {
		t.Errorf("torn segment still in the replay path: %v", err)
	}
	ids, served := scoreAll(t, client, second.url)

	// A request whose body is still arriving when SIGTERM lands: the drain
	// must wait for it, and main must wait for the drain.
	conn, err := net.Dial("tcp", strings.TrimPrefix(second.url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"id":` + int64String(ids[0]) + `}`
	fmt.Fprintf(conn, "POST /v1/score HTTP/1.1\r\nHost: churnd\r\nContent-Length: %d\r\n\r\n%s", len(body), body[:3])
	// A connection still in the listen backlog when the listener closes is
	// reset, not drained. churnd accepts in order, so a reply on a
	// connection dialed after this one proves this one was accepted.
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 30 * time.Second}
	if resp, err := probe.Get(second.url + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if err := second.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	second.waitLog(t, "churnd: draining")
	if second.exited(300*time.Millisecond) || strings.Contains(second.logged(), "churnd: drained") {
		t.Fatalf("churnd finished draining with a request in flight:\n%s", second.logged())
	}
	io.WriteString(conn, body[3:])
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("in-flight request cut by the drain: %v", err)
	}
	var sr scoreResponse
	json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sr.Score == nil || math.Float64bits(*sr.Score) != math.Float64bits(served[0]) {
		t.Errorf("in-flight request = %d score %v, want 200 and %v", resp.StatusCode, sr.Score, served[0])
	}
	if !second.exited(30 * time.Second) {
		t.Fatalf("churnd did not exit after SIGTERM:\n%s", second.logged())
	}
	if second.err != nil || !strings.Contains(second.logged(), "churnd: drained") {
		t.Fatalf("SIGTERM exit: %v, want exit 0 after %q:\n%s", second.err, "churnd: drained", second.logged())
	}

	// The batch path over the merged log (the quarantined sidecar stays
	// out) prints the bits churnd served.
	pipe, err := core.LoadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, row := range mergedRebuild(t, whDir, artifact, false, ids) {
		if row == nil {
			t.Fatalf("imsi %d served but not in the merged rebuild", ids[i])
		}
		score := pipe.Classifier().Score(row)
		if math.Float64bits(served[i]) != math.Float64bits(score) {
			t.Fatalf("imsi %d: served %v after the quarantined restart, merged rebuild %v", ids[i], served[i], score)
		}
		if j := slices.Index(want.IDs, ids[i]); j < 0 || want.Scores[j] != score {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no served score moved: the surviving events never reached a score")
	}
}

// burstBatch is one /v1/events body: for each id a served-month recharge
// and a run of heavy web sessions, which move the forest's top features
// (flux, throughput) where a recharge alone may cross no split.
func burstBatch(ids []int64) string {
	var evs []string
	for _, id := range ids {
		imsi := int64String(id)
		evs = append(evs, `{"table":"recharges","imsi":`+imsi+`,"month":4,"day":7,"fields":{"amount":250}}`)
		for _, day := range []string{"2", "5", "9", "14", "20"} {
			evs = append(evs, `{"table":"web","imsi":`+imsi+`,"month":4,"day":`+day+`,"fields":{"page_req":40,"page_succ":38,"resp_delay":0.8,"browse_succ":35,"browse_delay":1.1,"dl_tp":900,"ul_tp":250,"flux":600,"tcp_rtt":90}}`)
		}
	}
	return `{"events":[` + strings.Join(evs, ",") + `]}`
}

// sameBits reports whether a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestStalledBodyCutAtRequestTimeout: a client that sends its headers and
// half a body, then stalls, is answered or dropped within -request-timeout,
// and cannot hold a SIGTERM drain past it even under a two-minute
// -drain-timeout. A keep-alive connection idle for longer than the budget
// still carries the next request.
func TestStalledBodyCutAtRequestTimeout(t *testing.T) {
	whDir, artifact, want := makeWorld(t)
	const budget = time.Second
	p := startChurnd(t, "-artifact", artifact, "-warehouse", whDir, "-fsync", "off",
		"-request-timeout", budget.String(), "-drain-timeout", "2m")
	body := `{"id":` + int64String(want.IDs[0]) + `}`

	client := &http.Client{Timeout: 30 * time.Second}
	var reused []bool
	for i := 0; i < 2; i++ {
		trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = append(reused, info.Reused) }}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace),
			http.MethodPost, p.url+"/v1/score", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("score %d: status %d", i, resp.StatusCode)
		}
		if i == 0 {
			time.Sleep(budget + budget/2)
		}
	}
	if len(reused) != 2 || !reused[1] {
		t.Errorf("connection reuse %v: a keep-alive connection idle past the budget was closed", reused)
	}

	halfSent := func() net.Conn {
		conn, err := net.Dial("tcp", strings.TrimPrefix(p.url, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		fmt.Fprintf(conn, "POST /v1/score HTTP/1.1\r\nHost: churnd\r\nContent-Length: %d\r\n\r\n%s", len(body), body[:3])
		return conn
	}

	conn := halfSent()
	start := time.Now()
	conn.SetReadDeadline(start.Add(budget + 10*time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("a stalled body held its connection for %v against a %v budget", time.Since(start).Round(time.Millisecond), budget)
		}
	}

	halfSent()
	// churnd accepts in order: a reply on a connection dialed after the
	// stalled one proves the stalled one was accepted before the drain.
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 30 * time.Second}
	if resp, err := probe.Get(p.url + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	start = time.Now()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if !p.exited(budget + 10*time.Second) {
		t.Fatalf("a stalled body held the drain for %v against a %v budget:\n%s", time.Since(start).Round(time.Millisecond), budget, p.logged())
	}
	if p.err != nil || !strings.Contains(p.logged(), "churnd: drained") {
		t.Fatalf("SIGTERM exit: %v, want exit 0 after %q:\n%s", p.err, "churnd: drained", p.logged())
	}
}

// TestRefreshOutlastsOneBudget: /v1/refresh has six -request-timeout
// budgets, and the read budgets churnd's server and body layer put on a
// request must not cut that to one. A refresh held past one budget (here
// by holding the ingest lock it takes first), served through the server
// main builds, answers 200.
func TestRefreshOutlastsOneBudget(t *testing.T) {
	whDir, artifact, want := makeWorld(t)
	const budget = 500 * time.Millisecond
	svc, err := buildService(serviceOpts{artifact: artifact, warehouse: whDir, reqTimeout: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = newServer(svc.Handler(), budget)
	ts.Start()
	defer ts.Close()

	svc.ingestMu.Lock()
	done := make(chan string, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/refresh", "application/json", nil)
		if err != nil {
			done <- err.Error()
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			done <- fmt.Sprintf("%d %s", resp.StatusCode, body)
		}
		close(done)
	}()
	time.Sleep(budget + budget/2)
	svc.ingestMu.Unlock()
	if failed, ok := <-done; ok {
		t.Fatalf("refresh held past one budget: %s, want 200", failed)
	}
	// The same keep-alive client scores after it.
	if status, body, _ := doRequest(t, ts, "POST", "/v1/score", `{"id":`+int64String(want.IDs[0])+`}`); status != http.StatusOK {
		t.Fatalf("score after the refresh: %d %s", status, body)
	}
}
