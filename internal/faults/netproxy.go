package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy is a deterministic, seeded TCP fault proxy: a listener that
// forwards every accepted connection to one upstream address while
// injecting connection resets, read/write latency, mid-stream stalls and
// partial writes. It extends the Injector's
// reproducibility contract to the network: every decision is a pure
// function of (seed, site, connection index, attempt), so the same seed in
// front of the same client behavior kills the same connections at the same
// byte offsets — network chaos tests are property tests, not flake
// generators.
//
// Connections are numbered in accept order. Faults whose firing point must
// not depend on how the kernel happens to chunk reads (reset, stall) are
// keyed purely by connection index and triggered at a deterministic byte
// offset of total forwarded traffic, which depends only on what the
// endpoints send — never on segmentation. Per-chunk faults (latency,
// partial writes) shape timing, not outcomes.

// NetConfig configures a Proxy. Rates are in [0, 1]; the zero value
// forwards cleanly.
type NetConfig struct {
	// Seed keys every decision, like Config.Seed.
	Seed int64
	// Site names this proxy in the decision key, so two proxies with one
	// seed (e.g. in front of different daemons) draw distinct schedules.
	Site string
	// Reset is the per-connection probability that the connection is
	// condemned: once total forwarded bytes cross a seeded threshold (up to
	// ResetWindow), both sides are torn down with an RST to the client.
	Reset float64
	// ResetWindow bounds the condemned connection's byte threshold
	// (default 8 KiB): a condemned connection dies within its first
	// ResetWindow forwarded bytes.
	ResetWindow int
	// Stall is the per-connection probability of one mid-stream stall of
	// StallDuration at a seeded byte offset (up to ResetWindow).
	Stall float64
	// StallDuration is how long a firing stall blocks forwarding.
	StallDuration time.Duration
	// ReadLatency is the maximum per-chunk delay on the client→upstream
	// direction; each chunk gets a seeded fraction. WriteLatency is the
	// same for upstream→client.
	ReadLatency  time.Duration
	WriteLatency time.Duration
	// PartialWrite is the per-chunk probability that a forwarded chunk is
	// written in two halves with a StallDuration/10 pause between them —
	// exercising short-read handling in the endpoint.
	PartialWrite float64
	// Sleep is the latency clock (default time.Sleep; tests inject a fake).
	Sleep func(time.Duration)
}

// NetCounts reports what the proxy has done and fired.
type NetCounts struct {
	Conns    uint64 // connections accepted
	Resets   uint64 // connections torn down by the reset fault
	Stalls   uint64 // mid-stream stalls fired
	Partials uint64 // chunks split by the partial-write fault
	Delays   uint64 // read/write latency sleeps injected
	BytesIn  uint64 // bytes forwarded client→upstream
	BytesOut uint64 // bytes forwarded upstream→client
}

// Proxy forwards one listener to one upstream address under NetConfig.
type Proxy struct {
	cfg      NetConfig
	upstream string
	ln       net.Listener

	connSeq atomic.Uint64
	counts  struct {
		resets, stalls, partials, delays atomic.Uint64
		bytesIn, bytesOut                atomic.Uint64
	}

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewProxy listens on listen (e.g. "127.0.0.1:0") and forwards every
// connection to upstream under cfg. Close releases the listener and tears
// down live connections.
func NewProxy(listen, upstream string, cfg NetConfig) (*Proxy, error) {
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.ResetWindow <= 0 {
		cfg.ResetWindow = 8 << 10
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("faults: proxy listen: %w", err)
	}
	p := &Proxy{cfg: cfg, upstream: upstream, ln: ln, conns: map[net.Conn]struct{}{}}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address (dial this instead of upstream).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Counts returns a snapshot of the proxy's counters.
func (p *Proxy) Counts() NetCounts {
	return NetCounts{
		Conns:    p.connSeq.Load(),
		Resets:   p.counts.resets.Load(),
		Stalls:   p.counts.stalls.Load(),
		Partials: p.counts.partials.Load(),
		Delays:   p.counts.delays.Load(),
		BytesIn:  p.counts.bytesIn.Load(),
		BytesOut: p.counts.bytesOut.Load(),
	}
}

// Close stops accepting, tears down live connections, and waits for the
// forwarding goroutines to drain.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

// roll returns a deterministic uniform value in [0, 1) for the decision
// keyed by (seed, kind, site, connection, attempt) — the Injector's roll
// with the connection index in the site position.
func (p *Proxy) roll(kind string, conn uint64, attempt int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|net|%s|%s|%d|%d", p.cfg.Seed, kind, p.cfg.Site, conn, attempt)
	return float64(h.Sum64()%1_000_000) / 1_000_000
}

// track registers a live connection for teardown on Close; it reports
// false (and closes c) if the proxy is already closed.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		idx := p.connSeq.Add(1)
		p.wg.Add(1)
		go p.serve(client, idx)
	}
}

// connState is the per-connection fault schedule, fixed at accept time:
// the byte offsets (over total forwarded traffic, both directions) at
// which the reset and stall faults fire. -1 disables a fault.
type connState struct {
	idx      uint64
	total    atomic.Int64
	resetAt  int64
	stallAt  int64
	stalled  atomic.Bool
	resetter sync.Once
	client   net.Conn
	server   net.Conn
}

// serve forwards one accepted connection through the fault schedule.
func (p *Proxy) serve(client net.Conn, idx uint64) {
	defer p.wg.Done()
	if !p.track(client) {
		return
	}
	defer p.untrack(client)
	defer client.Close()

	server, err := net.DialTimeout("tcp", p.upstream, 10*time.Second)
	if err != nil {
		return // upstream down: client sees an immediate close
	}
	if !p.track(server) {
		return
	}
	defer p.untrack(server)
	defer server.Close()

	st := &connState{idx: idx, resetAt: -1, stallAt: -1, client: client, server: server}
	if p.roll("reset", idx, 0) < p.cfg.Reset {
		st.resetAt = int64(p.roll("reset-at", idx, 0) * float64(p.cfg.ResetWindow))
	}
	if p.roll("stall", idx, 0) < p.cfg.Stall {
		st.stallAt = int64(p.roll("stall-at", idx, 0) * float64(p.cfg.ResetWindow))
	}

	var pumps sync.WaitGroup
	pumps.Add(2)
	go func() {
		defer pumps.Done()
		p.pump(st, "c2s", client, server, p.cfg.ReadLatency, &p.counts.bytesIn)
	}()
	go func() {
		defer pumps.Done()
		p.pump(st, "s2c", server, client, p.cfg.WriteLatency, &p.counts.bytesOut)
	}()
	pumps.Wait()
}

// abort tears the connection down hard: linger 0 on the client side so the
// kernel emits an RST instead of a graceful FIN.
func (st *connState) abort(p *Proxy) {
	st.resetter.Do(func() {
		// Count first: the client can observe the RST before Close returns.
		p.counts.resets.Add(1)
		if tc, ok := st.client.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		st.client.Close()
		st.server.Close()
	})
}

// pump forwards one direction chunk by chunk, applying the fault schedule.
// dir keys per-chunk latency decisions so the two directions draw
// independent delays.
func (p *Proxy) pump(st *connState, dir string, src, dst net.Conn, latency time.Duration, fwd *atomic.Uint64) {
	buf := make([]byte, 32<<10)
	chunk := 0
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunk++
			total := st.total.Add(int64(n))
			// Stall: one pause per connection, fired by the first chunk
			// that crosses the scheduled byte offset.
			if st.stallAt >= 0 && total-int64(n) <= st.stallAt && total > st.stallAt &&
				st.stalled.CompareAndSwap(false, true) {
				p.counts.stalls.Add(1)
				p.cfg.Sleep(p.cfg.StallDuration)
			}
			// Reset: condemned connections die once total forwarded bytes
			// cross the scheduled offset, whatever direction got there.
			if st.resetAt >= 0 && total > st.resetAt {
				st.abort(p)
				return
			}
			if latency > 0 {
				d := time.Duration(p.roll("latency-"+dir, st.idx, chunk) * float64(latency))
				if d > 0 {
					p.counts.delays.Add(1)
					p.cfg.Sleep(d)
				}
			}
			if p.cfg.PartialWrite > 0 && n > 1 &&
				p.roll("partial-"+dir, st.idx, chunk) < p.cfg.PartialWrite {
				p.counts.partials.Add(1)
				if _, werr := dst.Write(buf[:n/2]); werr != nil {
					st.closeBoth()
					return
				}
				p.cfg.Sleep(p.cfg.StallDuration / 10)
				if _, werr := dst.Write(buf[n/2 : n]); werr != nil {
					st.closeBoth()
					return
				}
			} else if _, werr := dst.Write(buf[:n]); werr != nil {
				st.closeBoth()
				return
			}
			fwd.Add(uint64(n))
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				// Half-close: propagate the FIN, let the other direction
				// finish draining.
				if tc, ok := dst.(*net.TCPConn); ok {
					tc.CloseWrite()
				}
			} else {
				st.closeBoth()
			}
			return
		}
	}
}

// closeBoth ends the connection gracefully (no RST) after a hard pump
// error, so the peer observes a close rather than a hang.
func (st *connState) closeBoth() {
	st.client.Close()
	st.server.Close()
}
