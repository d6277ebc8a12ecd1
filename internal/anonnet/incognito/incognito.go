// Package incognito implements Nymix's lightweight incognito mode: an
// iptables-MASQUERADE NAT relay in the CommVM (paper section 4.1).
// It imposes minimal overhead but provides no network-level
// anonymity: servers observe the user's NAT'd public address, and DNS
// queries go straight to the ISP resolver — both deliberately modeled
// so the tracker experiments can show the difference.
package incognito

import (
	"fmt"
	"time"

	"nymix/internal/anonnet"
	"nymix/internal/sim"
	"nymix/internal/vnet"
)

func init() {
	anonnet.RegisterTransport("incognito", anonnet.TransportInfo{},
		func(env anonnet.Env) (anonnet.Transport, error) {
			return New(env.Net, env.CommNode, env.HostNode,
				env.World.ISPDNS().Name(), env.World.Resolver()), nil
		})
}

// WireOverhead is the NAT path's negligible overhead.
const WireOverhead = 0.02

// setupTime is the iptables configuration cost.
const setupTime = 300 * time.Millisecond

// Relay is the incognito-mode relay.
type Relay struct {
	net      *vnet.Network
	commNode string
	hostNode string // the masquerading host whose address servers see
	dnsNode  string // the ISP resolver the direct DNS path leaks to
	resolver func(string) (string, bool)
	ready    bool
	// DNSQueries records every name leaked to the ISP resolver.
	DNSQueries []string
}

// New creates an incognito relay for the CommVM at commNode. hostNode
// is the Nymix host (the NAT identity servers observe); dnsNode is the
// ISP resolver.
func New(net *vnet.Network, commNode, hostNode, dnsNode string, resolver func(string) (string, bool)) *Relay {
	return &Relay{
		net:      net,
		commNode: commNode,
		hostNode: hostNode,
		dnsNode:  dnsNode,
		resolver: resolver,
	}
}

// Name implements anonnet.Transport.
func (r *Relay) Name() string { return "incognito" }

// Proto implements anonnet.Transport.
func (r *Relay) Proto() string { return "incognito" }

// OverheadFrac implements anonnet.Transport.
func (r *Relay) OverheadFrac() float64 { return WireOverhead }

// Ready implements anonnet.Transport.
func (r *Relay) Ready() bool { return r.ready }

// Start implements anonnet.Transport: just the iptables setup.
func (r *Relay) Start(p *sim.Proc) error {
	p.Sleep(sim.Time(p.Rand().Jitter(float64(setupTime), 0.2)))
	r.ready = true
	return nil
}

// Fetch implements anonnet.Transport: a direct NAT'd exchange.
func (r *Relay) Fetch(p *sim.Proc, req anonnet.Request) (anonnet.FetchResult, error) {
	if !r.ready {
		return anonnet.FetchResult{}, anonnet.ErrNotReady
	}
	if req.SiteNode == "" {
		return anonnet.FetchResult{}, anonnet.ErrBadRequest
	}
	start := p.Now()
	up := r.net.StartTransfer(vnet.TransferOpts{
		From: r.commNode, To: req.SiteNode,
		Bytes: max(req.SendBytes, 256), Proto: "incognito", Overhead: WireOverhead,
	})
	if _, err := sim.Await(p, up); err != nil {
		return anonnet.FetchResult{}, fmt.Errorf("incognito: upstream: %w", err)
	}
	if req.RecvBytes > 0 {
		down := r.net.StartTransfer(vnet.TransferOpts{
			From: req.SiteNode, To: r.commNode,
			Bytes: req.RecvBytes, Proto: "incognito", Overhead: WireOverhead,
			NoHandshake: true,
		})
		if _, err := sim.Await(p, down); err != nil {
			return anonnet.FetchResult{}, fmt.Errorf("incognito: downstream: %w", err)
		}
	}
	return anonnet.FetchResult{Sent: req.SendBytes, Received: req.RecvBytes, Elapsed: p.Now() - start}, nil
}

// Resolve implements anonnet.Transport — by asking the ISP resolver
// directly over UDP. The query is visible to (and recorded by) the
// resolver: the tracking exposure that separates incognito mode from
// Tor.
func (r *Relay) Resolve(p *sim.Proc, host string) (string, error) {
	if !r.ready {
		return "", anonnet.ErrNotReady
	}
	q := r.net.StartTransfer(vnet.TransferOpts{
		From: r.commNode, To: r.dnsNode,
		Bytes: 64, Proto: "dns", NoHandshake: true,
	})
	if _, err := sim.Await(p, q); err != nil {
		return "", fmt.Errorf("incognito: dns: %w", err)
	}
	r.DNSQueries = append(r.DNSQueries, host)
	node, ok := r.resolver(host)
	if !ok {
		return "", fmt.Errorf("%w: %s", anonnet.ErrResolve, host)
	}
	return node, nil
}

// ExitIdentity implements anonnet.Transport: the NAT'd host address —
// i.e., the user's own public IP. No anonymity.
func (r *Relay) ExitIdentity() string { return r.hostNode }

// ExportState implements anonnet.Transport (nothing worth keeping).
func (r *Relay) ExportState() anonnet.State { return anonnet.State{} }

// ImportState implements anonnet.Transport.
func (r *Relay) ImportState(anonnet.State) {}

// Stop implements anonnet.Transport.
func (r *Relay) Stop() { r.ready = false }

var _ anonnet.Transport = (*Relay)(nil)
