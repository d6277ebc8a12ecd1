// Package anonnet defines Nymix's pluggable anonymizer framework
// (paper section 3.3). A Transport runs inside a nym's CommVM and is
// the AnonVM's only path to the Internet: it accepts SOCKS-style
// fetch requests on the virtual wire, carries them across the
// anonymity network, and re-originates them so that servers observe
// the transport's exit identity rather than the user's address.
//
// Implementations: anonnet/tor (onion routing with persistent entry
// guards), anonnet/dissent (anytrust DC-nets), anonnet/sweet
// (mail-tunneled proxying), anonnet/incognito (plain NAT relaying
// with minimal overhead and no network-level anonymity), and
// anonnet/mixnet (a fixed-cascade mix network with fixed-size packet
// framing and constant-rate cover traffic). Each registers a factory
// under its kind name (RegisterTransport), so the nym manager builds
// transports through NewTransport without linking against every
// implementation by name. Transports can be chained in series
// (section 3.3's "best of both worlds" configurations) with Chain.
package anonnet

import (
	"time"

	"nymix/internal/sim"
)

// Request is one SOCKS-style exchange: send the request upstream,
// receive the response downstream.
type Request struct {
	SiteNode  string // destination network node name
	SendBytes int64  // upstream payload (request, uploads, posts)
	RecvBytes int64  // downstream payload (page, download)
}

// FetchResult reports a completed exchange.
type FetchResult struct {
	Sent     int64
	Received int64
	Elapsed  time.Duration
}

// State is a transport's quasi-persistent state (for Tor, the entry
// guard and cached consensus), serialized into the nym archive so
// that restoring a nym restores its guard — the property section 3.5
// identifies as critical against long-term intersection attacks.
type State map[string]string

// Transport is a communication tool pluggable into a CommVM.
type Transport interface {
	// Name identifies the tool ("tor", "dissent", "incognito").
	Name() string
	// Proto is the wire-protocol label observers see on captures.
	Proto() string
	// Start bootstraps the tool inside the CommVM; it blocks the
	// calling process for the bootstrap duration (the "Start Tor" phase
	// of Figure 7).
	Start(p *sim.Proc) error
	// Ready reports whether Fetch may be called.
	Ready() bool
	// Fetch performs one request/response exchange with a site.
	Fetch(p *sim.Proc, req Request) (FetchResult, error)
	// Resolve maps a DNS name to a network node through the tool's own
	// resolution path (Tor's built-in DNS, Dissent's UDP tunnel, or the
	// incognito mode's leaky direct query).
	Resolve(p *sim.Proc, host string) (string, error)
	// ExitIdentity is the source address servers observe.
	ExitIdentity() string
	// OverheadFrac is the tool's fractional wire overhead (~0.12 for
	// Tor's cells and control traffic, per Figure 5).
	OverheadFrac() float64
	// ExportState captures quasi-persistent state; ImportState restores
	// it before Start.
	ExportState() State
	ImportState(State)
	// Stop tears the tool down.
	Stop()
}

// Chain runs requests through anonymizers in series: traffic enters
// the first and exits from the last, so the observed exit identity and
// overheads compose. Start and Stop apply to every stage.
type Chain struct {
	stages []Transport
}

// NewChain composes stages in order (first = closest to the user).
func NewChain(stages ...Transport) *Chain { return &Chain{stages: stages} }

// Name returns the composed name, e.g. "tor+dissent".
func (c *Chain) Name() string {
	name := ""
	for i, s := range c.stages {
		if i > 0 {
			name += "+"
		}
		name += s.Name()
	}
	return name
}

// Proto returns the first stage's wire protocol (what the host uplink
// observes).
func (c *Chain) Proto() string { return c.stages[0].Proto() }

// Start bootstraps every stage in order.
func (c *Chain) Start(p *sim.Proc) error {
	for _, s := range c.stages {
		if err := s.Start(p); err != nil {
			return err
		}
	}
	return nil
}

// Ready reports whether every stage is ready.
func (c *Chain) Ready() bool {
	for _, s := range c.stages {
		if !s.Ready() {
			return false
		}
	}
	return true
}

// Fetch sends the request through the full chain. Each inner stage
// adds its overhead; the exchange is carried by the final stage.
func (c *Chain) Fetch(p *sim.Proc, req Request) (FetchResult, error) {
	if !c.Ready() {
		return FetchResult{}, ErrNotReady
	}
	// Inflate payloads by the overhead of every stage but the last;
	// the last stage performs the transfer (adding its own overhead).
	inflated := req
	for _, s := range c.stages[:len(c.stages)-1] {
		inflated.SendBytes = int64(float64(inflated.SendBytes) * (1 + s.OverheadFrac()))
		inflated.RecvBytes = int64(float64(inflated.RecvBytes) * (1 + s.OverheadFrac()))
	}
	return c.stages[len(c.stages)-1].Fetch(p, inflated)
}

// Resolve resolves through the final stage.
func (c *Chain) Resolve(p *sim.Proc, host string) (string, error) {
	return c.stages[len(c.stages)-1].Resolve(p, host)
}

// ExitIdentity is the final stage's exit.
func (c *Chain) ExitIdentity() string { return c.stages[len(c.stages)-1].ExitIdentity() }

// OverheadFrac composes multiplicatively.
func (c *Chain) OverheadFrac() float64 {
	total := 1.0
	for _, s := range c.stages {
		total *= 1 + s.OverheadFrac()
	}
	return total - 1
}

// ExportState merges stage states under prefixed keys.
func (c *Chain) ExportState() State {
	out := State{}
	for i, s := range c.stages {
		for k, v := range s.ExportState() {
			out[c.stageKey(i, s)+k] = v
		}
	}
	return out
}

// ImportState splits prefixed keys back to stages.
func (c *Chain) ImportState(st State) {
	for i, s := range c.stages {
		prefix := c.stageKey(i, s)
		sub := State{}
		for k, v := range st {
			if len(k) > len(prefix) && k[:len(prefix)] == prefix {
				sub[k[len(prefix):]] = v
			}
		}
		if len(sub) > 0 {
			s.ImportState(sub)
		}
	}
}

func (c *Chain) stageKey(i int, s Transport) string {
	return s.Name() + "#" + string(rune('0'+i)) + "/"
}

// Stop tears down every stage, last first.
func (c *Chain) Stop() {
	for i := len(c.stages) - 1; i >= 0; i-- {
		c.stages[i].Stop()
	}
}

var _ Transport = (*Chain)(nil)
