package faults

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// echoServer accepts connections and echoes bytes back until EOF.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(c, c)
				c.Close()
			}()
		}
	}()
	return ln.Addr().String()
}

// fakeSleep records requested sleep durations without sleeping.
type fakeSleep struct{ total atomic.Int64 }

func (f *fakeSleep) sleep(d time.Duration) { f.total.Add(int64(d)) }

func newProxy(t *testing.T, upstream string, cfg NetConfig) *Proxy {
	t.Helper()
	p, err := NewProxy("127.0.0.1:0", upstream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// exchange dials addr, writes payload, and reads the full echo back.
// It reports whether the round trip survived.
func exchange(t *testing.T, addr string, payload []byte) ([]byte, bool) {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, false
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.Write(payload); err != nil {
		return nil, false
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	got, err := io.ReadAll(c)
	if err != nil || len(got) != len(payload) {
		return got, false
	}
	return got, true
}

// TestProxyPassthrough: the zero config forwards bit-exactly.
func TestProxyPassthrough(t *testing.T) {
	p := newProxy(t, echoServer(t), NetConfig{})
	payload := bytes.Repeat([]byte("telco"), 10_000)
	got, ok := exchange(t, p.Addr(), payload)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("passthrough corrupted: ok=%v got %d bytes want %d", ok, len(got), len(payload))
	}
	c := p.Counts()
	if c.Conns != 1 || c.Resets != 0 {
		t.Fatalf("counts = %+v", c)
	}
	if c.BytesIn != uint64(len(payload)) || c.BytesOut != uint64(len(payload)) {
		t.Fatalf("forwarded bytes = %d/%d, want %d", c.BytesIn, c.BytesOut, len(payload))
	}
}

// TestProxyResetDeterminism: the reproducibility contract — the same seed
// condemns the same connections, across separate proxy instances.
func TestProxyResetDeterminism(t *testing.T) {
	upstream := echoServer(t)
	payload := bytes.Repeat([]byte("x"), 4096)
	pattern := func(seed int64) string {
		p := newProxy(t, upstream, NetConfig{Seed: seed, Site: "d", Reset: 0.5})
		var b []byte
		for i := 0; i < 24; i++ {
			if _, ok := exchange(t, p.Addr(), payload); ok {
				b = append(b, 'o')
			} else {
				b = append(b, 'x')
			}
		}
		return string(b)
	}
	a, b := pattern(7), pattern(7)
	if a != b {
		t.Fatalf("same seed diverged:\n  %s\n  %s", a, b)
	}
	if !bytes.ContainsRune([]byte(a), 'x') || !bytes.ContainsRune([]byte(a), 'o') {
		t.Fatalf("pattern %s should mix survivors and resets at Reset=0.5", a)
	}
	if c := pattern(8); c == a {
		t.Logf("seeds 7 and 8 coincide (%s); suspicious but possible", c)
	}
}

// TestProxyResetAllKills: Reset=1 condemns every connection within its
// reset window.
func TestProxyResetAllKills(t *testing.T) {
	p := newProxy(t, echoServer(t), NetConfig{Seed: 1, Reset: 1})
	payload := bytes.Repeat([]byte("y"), 16<<10) // 2× the default window
	for i := 0; i < 5; i++ {
		if _, ok := exchange(t, p.Addr(), payload); ok {
			t.Fatalf("conn %d survived Reset=1", i)
		}
	}
	if c := p.Counts(); c.Resets != 5 {
		t.Fatalf("resets = %d, want 5", c.Resets)
	}
}

// TestProxyHTTPUnderLatency: a real HTTP exchange survives read/write
// latency and stalls (fake clock), and the faults actually fire.
func TestProxyHTTPUnderLatency(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "pong %s", r.URL.Path)
	})}
	go srv.Serve(ln)
	defer srv.Close()

	fs := &fakeSleep{}
	p := newProxy(t, ln.Addr().String(), NetConfig{
		Seed: 3, Site: "http",
		ReadLatency: 50 * time.Millisecond, WriteLatency: 50 * time.Millisecond,
		// Small window so the stall offset lands inside a few short HTTP
		// exchanges on the keep-alive connection.
		ResetWindow: 256,
		Stall:       1, StallDuration: time.Second,
		PartialWrite: 1,
		Sleep:        fs.sleep,
	})
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 4; i++ {
		resp, err := client.Get(fmt.Sprintf("http://%s/p%d", p.Addr(), i))
		if err != nil {
			t.Fatalf("GET %d through faulty proxy: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := fmt.Sprintf("pong /p%d", i); string(body) != want {
			t.Fatalf("GET %d = %q, want %q", i, body, want)
		}
	}
	c := p.Counts()
	if c.Delays == 0 || c.Stalls == 0 || c.Partials == 0 {
		t.Fatalf("faults did not fire: %+v", c)
	}
	if fs.total.Load() == 0 {
		t.Fatal("no sleep was requested")
	}
}

// TestProxyCloseUnblocks: Close tears down live connections promptly.
func TestProxyCloseUnblocks(t *testing.T) {
	p := newProxy(t, echoServer(t), NetConfig{})
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a live connection")
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := c.Read(buf); err == nil {
		// Drain until the close is visible.
		if _, err := c.Read(buf); err == nil {
			t.Fatal("connection still open after proxy Close")
		}
	}
}
