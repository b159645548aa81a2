package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"time"

	"dkcore/internal/chaos"
	"dkcore/internal/core"
	"dkcore/internal/transport"
)

// Dial retry/backoff knobs: attempts back off exponentially from the
// floor to the cap, each jittered to half-to-full value so a fleet of
// hosts started together does not re-dial in lockstep.
const (
	dialBackoffFloor = 25 * time.Millisecond
	dialBackoffCap   = 2 * time.Second
	defaultDialWait  = 10 * time.Second
)

// HostConfig configures a host worker.
type HostConfig struct {
	// CoordinatorAddr is the coordinator's TCP address.
	CoordinatorAddr string
	// DialTimeout bounds one dial attempt. 0 means 10s.
	DialTimeout time.Duration
	// RetryWait is how long the host keeps retrying transient failures
	// — a coordinator not yet listening, a connection reset mid-run —
	// with capped exponential backoff and jitter before giving up,
	// measured from the last successful connection (or from start). 0,
	// the default, disables retry entirely: the first failure is final,
	// the long-standing one-shot behavior. A reconnecting host enrolls
	// as a fresh joiner, so mid-run retry only helps a coordinator
	// running with a RejoinWait budget to restore it.
	RetryWait time.Duration
	// FrameTimeout bounds each frame send and each wait for the next
	// frame on the coordinator connection. 0 disables deadlines.
	// Choose it above the longest legitimate quiet period — a full
	// round's compute plus the coordinator's RejoinWait, during which a
	// healthy host hears nothing.
	FrameTimeout time.Duration
	// Dialer overrides how the coordinator connection is established;
	// nil means a net.Dialer with DialTimeout. Chaos tests inject
	// fault-wrapped connections here.
	Dialer func(ctx context.Context, network, addr string) (net.Conn, error)
	// Clock is the time source for retry backoff; nil means the wall
	// clock. Chaos tests substitute a chaos.FakeClock.
	Clock chaos.Clock
	// Log receives structured runtime events (restores). nil discards
	// them.
	Log *slog.Logger
}

// HostResult reports one host worker's share of a networked run — the
// per-host counterpart of the coordinator's Result, so the cluster path
// returns structured metrics like every other execution path.
type HostResult struct {
	// HostID is the identity the coordinator assigned this worker.
	HostID int
	// Owned is the host's final node set, sorted ascending, and
	// Coreness[i] is the final coreness estimate of Owned[i].
	Owned    []int
	Coreness []int
	// Rounds is the number of coordinator-driven rounds this host served.
	Rounds int
	// BatchesSent is the number of estimate batches shipped to peer hosts.
	BatchesSent int64
	// BatchesApplied is the number of peer batches applied locally.
	// A restore's seed batch comes from the coordinator, not a peer,
	// and is not counted.
	BatchesApplied int64
	// EstimatesSent is the number of (node, estimate) pairs shipped to
	// peers — this host's share of the Figure-5 overhead numerator.
	EstimatesSent int64
}

// RunHost dials the coordinator and serves one protocol session:
// handshake, configuration, restore, then ticks — and any restart's
// config and restore — until stopped. It returns after shipping the
// final result frame. Cancelling ctx tears the connection down promptly
// and returns ctx.Err(). With a RetryWait budget, transient failures —
// dialing before the coordinator listens, losing the connection or
// reading a corrupt frame mid-run — are retried under capped
// exponential backoff with jitter; the re-enrolled worker takes a dead
// host's place at the coordinator's next restart, seeded from the
// checkpointed estimates, so a retried session resumes warm rather
// than from scratch.
func RunHost(ctx context.Context, cfg HostConfig) (*HostResult, error) {
	clock := cfg.Clock
	if clock == nil {
		clock = chaos.Wall{}
	}
	backoff := dialBackoffFloor
	deadline := clock.Now().Add(cfg.RetryWait)
	for {
		res, connected, err := runHost(ctx, cfg)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if cfg.RetryWait <= 0 || !isTransient(err) {
			return res, err
		}
		if connected {
			// Real progress was made; a fresh failure gets a fresh budget.
			deadline = clock.Now().Add(cfg.RetryWait)
			backoff = dialBackoffFloor
		}
		wait := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		if clock.Now().Add(wait).After(deadline) {
			return nil, fmt.Errorf("cluster: no coordinator session within %v: %w", cfg.RetryWait, err)
		}
		if serr := clock.Sleep(ctx, wait); serr != nil {
			return nil, serr
		}
		backoff = min(backoff*2, dialBackoffCap)
	}
}

// isTransient classifies a session failure: connection-level faults
// (refused dials, resets, timeouts, torn frames, frames failing their
// checksum) are worth retrying, while protocol-level failures (version
// mismatch, hostile frames, decode errors) are final no matter how long
// the retry budget is.
func isTransient(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, chaos.ErrTripped) ||
		errors.Is(err, transport.ErrCorrupt) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// hostRun is a host worker's session state.
type hostRun struct {
	conn *transport.Conn
	log  *slog.Logger

	id      int
	state   *core.HostState // rebuilt by every config
	res     *HostResult
	stopped bool // final result shipped; the session is over

	doneBuf []byte
}

// runHost runs one session attempt. connected reports whether the dial
// succeeded — the retry loop's signal that the coordinator is reachable
// and a failure deserves a fresh budget.
func runHost(ctx context.Context, cfg HostConfig) (res *HostResult, connected bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	log := cfg.Log
	if log == nil {
		log = slog.New(discardHandler{})
	}
	dial := cfg.Dialer
	if dial == nil {
		timeout := cfg.DialTimeout
		if timeout <= 0 {
			timeout = defaultDialWait
		}
		d := &net.Dialer{Timeout: timeout}
		dial = d.DialContext
	}
	raw, err := dial(ctx, "tcp", cfg.CoordinatorAddr)
	if err != nil {
		return nil, false, fmt.Errorf("cluster: %w", err)
	}
	conn := transport.NewConn(raw)
	if cfg.FrameTimeout > 0 {
		conn.SetTimeouts(cfg.FrameTimeout, cfg.FrameTimeout)
	}
	defer conn.Close()
	stopWatch := context.AfterFunc(ctx, func() { conn.Close() })
	defer stopWatch()

	h := &hostRun{conn: conn, log: log, res: &HostResult{}}
	if err := h.handshake(); err != nil {
		return nil, true, err
	}
	if err := h.configure(); err != nil {
		return nil, true, err
	}
	if err := h.restore(); err != nil {
		return nil, true, err
	}
	if err := conn.Send(frameReady, nil); err != nil {
		return nil, true, fmt.Errorf("cluster: ready: %w", err)
	}
	if err := h.serve(); err != nil {
		return nil, true, err
	}
	return h.res, true, nil
}

func (h *hostRun) handshake() error {
	hello := helloMsg{Version: protocolVersion, Flags: flagFlate}
	if err := h.conn.Send(frameHello, encodeHello(hello)); err != nil {
		return fmt.Errorf("cluster: hello: %w", err)
	}
	typ, payload, err := h.conn.Recv()
	if err != nil {
		return fmt.Errorf("cluster: welcome: %w", err)
	}
	if typ != frameWelcome {
		return fmt.Errorf("cluster: coordinator sent frame %d, want welcome", typ)
	}
	welcome, err := decodeHello(payload)
	if err != nil {
		return fmt.Errorf("cluster: welcome: %w", err)
	}
	if welcome.Version != protocolVersion {
		return fmt.Errorf("cluster: coordinator speaks protocol %d, host speaks %d",
			welcome.Version, protocolVersion)
	}
	if welcome.Flags&flagFlate != 0 {
		h.conn.SetCompression(true)
	}
	return nil
}

// configure reads the config frame that opens a session.
func (h *hostRun) configure() error {
	typ, payload, err := h.conn.Recv()
	if err != nil {
		return fmt.Errorf("cluster: config: %w", err)
	}
	if typ != frameConfig {
		return fmt.Errorf("cluster: coordinator sent frame %d, want config", typ)
	}
	return h.applyConfig(payload)
}

// applyConfig replaces the partition state with the one a config frame
// describes; the restore frame that follows initializes it.
func (h *hostRun) applyConfig(payload []byte) error {
	cfg, err := decodeConfig(payload)
	if err != nil {
		return fmt.Errorf("cluster: config: %w", err)
	}
	h.id = cfg.HostID
	h.res.HostID = cfg.HostID
	block := cfg.block()
	lo, hi := block.Range(h.id)
	owned := make([]int32, hi-lo)
	for i := range owned {
		owned[i] = int32(lo + i)
	}
	h.state = core.NewHostState(h.id, cfg.NumNodes, owned, cfg.AdjOff, cfg.AdjFlat, block.Host)
	return nil
}

// restore reads the restore frame that follows every config and
// initializes the fresh partition state from it: InitEstimates, then
// the seed batch, then a local cascade. Every seed value bounds its
// node's coreness from above, so the cascade from it converges to the
// exact answer. All owned nodes stay marked changed, so the next
// collection re-ships the full border: the peers' knowledge was
// rebuilt too.
func (h *hostRun) restore() error {
	typ, payload, err := h.conn.Recv()
	if err != nil {
		return fmt.Errorf("cluster: restore: %w", err)
	}
	if typ != frameRestore {
		return fmt.Errorf("cluster: coordinator sent frame %d, want restore", typ)
	}
	seed, err := transport.DecodeBatch(payload)
	if err != nil {
		return fmt.Errorf("cluster: restore: %w", err)
	}
	h.state.InitEstimates()
	h.state.Apply(seed)
	h.state.ImproveIfDirty()
	if len(seed) > 0 {
		h.log.Info("state restored", "host", h.id, "seeded", len(seed))
	}
	return nil
}

// restart serves a mid-session config: the coordinator repartitioned,
// so the host rebuilds its state exactly as at enrollment.
func (h *hostRun) restart(payload []byte) error {
	if err := h.applyConfig(payload); err != nil {
		return err
	}
	if err := h.restore(); err != nil {
		return err
	}
	if err := h.conn.Send(frameReady, nil); err != nil {
		return fmt.Errorf("cluster: ready after restart: %w", err)
	}
	return nil
}

// serve processes ticks, restarts, and the final stop.
func (h *hostRun) serve() error {
	for {
		typ, payload, err := h.conn.Recv()
		if err != nil {
			return fmt.Errorf("cluster: host %d lost coordinator (last round %d): %w",
				h.id, h.res.Rounds, err)
		}
		switch typ {
		case frameTick:
			err = h.tick(payload)
		case frameConfig:
			err = h.restart(payload)
		case frameStop:
			err = h.sendResult()
		default:
			err = fmt.Errorf("cluster: coordinator sent unexpected frame %d", typ)
		}
		if err != nil {
			return err
		}
		if h.stopped {
			return nil
		}
	}
}

func (h *hostRun) tick(payload []byte) error {
	msg, err := decodeTick(payload)
	if err != nil {
		return fmt.Errorf("cluster: tick: %w", err)
	}
	for _, rb := range msg.Batches {
		batch, err := transport.DecodeBatch(rb.Raw)
		if err != nil {
			return fmt.Errorf("cluster: tick batch from host %d: %w", rb.Peer, err)
		}
		h.state.Apply(batch)
		h.res.BatchesApplied++
	}
	h.state.ImproveIfDirty()
	out := h.state.CollectPointToPoint()

	rep := doneReport{Round: msg.Round}
	relays := make([]relayBatch, 0, len(out))
	for _, peer := range h.state.NeighborHosts() {
		batch := out[peer]
		if len(batch) == 0 {
			continue
		}
		relays = append(relays, relayBatch{Peer: peer, Raw: transport.AppendBatch(nil, batch)})
		rep.Changed += len(batch)
		h.res.BatchesSent++
		h.res.EstimatesSent += int64(len(batch))
	}
	rep.SentTotal = h.res.BatchesSent
	rep.AppliedTotal = h.res.BatchesApplied
	rep.PairsTotal = h.res.EstimatesSent
	h.res.Rounds = msg.Round

	if msg.Checkpoint {
		if err := h.sendCheckpoint(msg.Round); err != nil {
			return err
		}
	}
	h.doneBuf = appendDone(h.doneBuf[:0], rep, relays)
	if err := h.conn.Send(frameDone, h.doneBuf); err != nil {
		return fmt.Errorf("cluster: done for round %d: %w", msg.Round, err)
	}
	return nil
}

func (h *hostRun) sendCheckpoint(round int) error {
	h.doneBuf = appendCheckpoint(h.doneBuf[:0], round, h.state.AppendOwnedEstimates(nil))
	if err := h.conn.Send(frameCheckpoint, h.doneBuf); err != nil {
		return fmt.Errorf("cluster: checkpoint for round %d: %w", round, err)
	}
	return nil
}

func (h *hostRun) sendResult() error {
	owned := h.state.Owned()
	coreness := h.state.AppendOwnedEstimates(make([]int, 0, len(owned)))
	if len(coreness) != len(owned) {
		return fmt.Errorf("cluster: result before init")
	}
	if err := h.conn.Send(frameResult, transport.EncodeIntSlice(coreness)); err != nil {
		return fmt.Errorf("cluster: result: %w", err)
	}
	h.res.Owned = owned
	h.res.Coreness = coreness
	h.stopped = true
	return nil
}
