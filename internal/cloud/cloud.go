// Package cloud simulates the free-to-use cloud storage providers
// (DropBox- and Google-Drive-like) that Nymix stores quasi-persistent
// nym state on (paper section 3.5). A user creates a pseudonymous
// account per nym; all interaction happens through the nym's
// anonymizer, so "the cloud provider learns nothing about the account
// owner", and blobs are encrypted, so it learns nothing about the nym
// either.
package cloud

import (
	"fmt"

	"nymix/internal/anonnet"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
	"nymix/internal/vnet"
)

// Blob is one stored object. Data carries the real (encrypted) bytes;
// WireSize is the simulated storage/transfer footprint, which can
// exceed len(Data) because nym archives model bulk content (browser
// caches) virtually.
type Blob struct {
	Data     []byte
	WireSize int64
	Uploaded sim.Time
}

// account is a pseudonymous cloud account.
type account struct {
	password string
	blobs    map[string]Blob
	used     int64
}

// Provider is one cloud storage service attached to the Internet.
type Provider struct {
	name     string
	node     *vnet.Node
	accounts map[string]*account
	quota    int64 // per-account bytes; 0 = unlimited
	// Uploads counts lifetime blob puts, for tests and stats.
	Uploads int
	// RoundTrips counts lifetime request/response exchanges the
	// provider served (logins, puts, gets, batches). A checkpoint
	// sweep that skips a clean nym must not move this counter — the
	// property the dirty-skip tests pin down.
	RoundTrips int
}

// NewProvider attaches a provider to the network at the given router
// (typically the Internet backbone) and returns it.
func NewProvider(net *vnet.Network, attach *vnet.Node, name string, quota int64, cfg vnet.LinkConfig) *Provider {
	node := net.AddNode("cloud:" + name)
	net.Connect(node, attach, cfg)
	return &Provider{
		name:     name,
		node:     node,
		accounts: make(map[string]*account),
		quota:    quota,
	}
}

// Name returns the provider name.
func (pr *Provider) Name() string { return pr.name }

// NodeName returns the provider's network node name.
func (pr *Provider) NodeName() string { return pr.node.Name() }

// CreateAccount registers a pseudonymous account. Creating an account
// that exists with a different password fails.
func (pr *Provider) CreateAccount(user, password string) error {
	if acct, ok := pr.accounts[user]; ok {
		if acct.password != password {
			return fmt.Errorf("%w: account %q exists", ErrAuth, user)
		}
		return nil
	}
	pr.accounts[user] = &account{password: password, blobs: make(map[string]Blob)}
	return nil
}

// auth validates credentials.
func (pr *Provider) auth(user, password string) (*account, error) {
	acct, ok := pr.accounts[user]
	if !ok || acct.password != password {
		return nil, ErrAuth
	}
	return acct, nil
}

// StoredBytes returns an account's storage use (0 for unknown users).
func (pr *Provider) StoredBytes(user string) int64 {
	if acct, ok := pr.accounts[user]; ok {
		return acct.used
	}
	return 0
}

// BlobInfo returns the wire size of a stored blob.
func (pr *Provider) BlobInfo(user, name string) (int64, bool) {
	if acct, ok := pr.accounts[user]; ok {
		if b, ok := acct.blobs[name]; ok {
			return b.WireSize, true
		}
	}
	return 0, false
}

// Session is an authenticated client session reached through an
// anonymizer.
type Session struct {
	provider *Provider
	acct     *account
	anon     anonnet.Transport
	user     string
}

// loginExchangeBytes covers the TLS handshake and login form.
const loginExchangeBytes = 96 << 10

// LoginWireBytes is the full wire cost of one session login exchange
// (request plus the TLS/login response). Exported so sweep telemetry
// can charge the session setup a checkpoint pays per provider — the
// cost a dirty-skip avoids entirely for clean nyms.
const LoginWireBytes = loginExchangeBytes + 4096

// Login authenticates through the anonymizer and returns a session.
// The paper's workflow: "the Nym Manager navigates the user to the
// cloud service, using the CommVM's anonymizer to protect this
// connection, and prompts the user to login".
func Login(p *sim.Proc, anon anonnet.Transport, pr *Provider, user, password string) (*Session, error) {
	if _, err := anon.Fetch(p, anonnet.Request{
		SiteNode: pr.NodeName(), SendBytes: 4096, RecvBytes: loginExchangeBytes,
	}); err != nil {
		return nil, nymerr.Wrap(CodeProviderUnreachable, err, "login exchange").
			AddContext("provider", pr.name)
	}
	pr.RoundTrips++
	acct, err := pr.auth(user, password)
	if err != nil {
		return nil, err
	}
	return &Session{provider: pr, acct: acct, anon: anon, user: user}, nil
}

// User returns the session's account name.
func (s *Session) User() string { return s.user }

// Provider returns the provider this session is authenticated to.
func (s *Session) Provider() *Provider { return s.provider }

// Put uploads a blob through the anonymizer. The transfer costs
// blob.WireSize bytes upstream.
func (s *Session) Put(p *sim.Proc, name string, blob Blob) error {
	if s.provider.quota != 0 {
		delta := blob.WireSize
		if old, ok := s.acct.blobs[name]; ok {
			delta -= old.WireSize
		}
		if s.acct.used+delta > s.provider.quota {
			return fmt.Errorf("%w: %d + %d > %d", ErrNoSpace, s.acct.used, delta, s.provider.quota)
		}
	}
	if _, err := s.anon.Fetch(p, anonnet.Request{
		SiteNode: s.provider.NodeName(), SendBytes: blob.WireSize, RecvBytes: 2048,
	}); err != nil {
		return nymerr.Wrap(CodeProviderUnreachable, err, "upload").
			AddContext("provider", s.provider.name).AddContext("blob", name)
	}
	s.provider.RoundTrips++
	if old, ok := s.acct.blobs[name]; ok {
		s.acct.used -= old.WireSize
	}
	blob.Uploaded = p.Now()
	blob.Data = append([]byte(nil), blob.Data...)
	s.acct.blobs[name] = blob
	s.acct.used += blob.WireSize
	s.provider.Uploads++
	return nil
}

// BatchFrameBytes is the per-blob multipart framing overhead inside a
// batched transfer — what replaces a full request/response round trip
// per blob when many chunks move in one exchange. Exported so callers
// (internal/vault's save stats) can account the same wire cost the
// transfer actually charges.
const BatchFrameBytes = 256

// PutBatch uploads a set of blobs through the anonymizer in a single
// aggregated exchange: one round trip whose upstream cost is the
// summed wire sizes plus per-blob framing, instead of one
// request/response (and 2 KiB ack) per blob. Chunked checkpoint
// stores (internal/vault) fan out hundreds of small objects; without
// batching each would pay the anonymizer's full per-request latency.
// Quota is checked for the whole batch before any transfer, so a
// rejected batch stores nothing.
func (s *Session) PutBatch(p *sim.Proc, blobs map[string]Blob) error {
	if len(blobs) == 0 {
		return nil
	}
	if s.provider.quota != 0 {
		var delta int64
		for name, b := range blobs {
			delta += b.WireSize
			if old, ok := s.acct.blobs[name]; ok {
				delta -= old.WireSize
			}
		}
		if s.acct.used+delta > s.provider.quota {
			return fmt.Errorf("%w: %d + %d > %d", ErrNoSpace, s.acct.used, delta, s.provider.quota)
		}
	}
	var send int64
	for _, b := range blobs {
		send += b.WireSize + BatchFrameBytes
	}
	if _, err := s.anon.Fetch(p, anonnet.Request{
		SiteNode: s.provider.NodeName(), SendBytes: send, RecvBytes: 2048,
	}); err != nil {
		return nymerr.Wrap(CodeProviderUnreachable, err, "batch upload").
			AddContext("provider", s.provider.name).AddContext("blobs", len(blobs))
	}
	s.provider.RoundTrips++
	for name, b := range blobs {
		if old, ok := s.acct.blobs[name]; ok {
			s.acct.used -= old.WireSize
		}
		b.Uploaded = p.Now()
		b.Data = append([]byte(nil), b.Data...)
		s.acct.blobs[name] = b
		s.acct.used += b.WireSize
		s.provider.Uploads++
	}
	return nil
}

// GetBatch downloads the named blobs in a single aggregated exchange
// (one request, one response carrying all blobs plus per-blob
// framing). A missing name fails the whole batch before any transfer.
func (s *Session) GetBatch(p *sim.Proc, names []string) (map[string]Blob, error) {
	if len(names) == 0 {
		return map[string]Blob{}, nil
	}
	var recv int64
	for _, name := range names {
		b, ok := s.acct.blobs[name]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		recv += b.WireSize + BatchFrameBytes
	}
	if _, err := s.anon.Fetch(p, anonnet.Request{
		SiteNode: s.provider.NodeName(), SendBytes: 2048, RecvBytes: recv,
	}); err != nil {
		return nil, nymerr.Wrap(CodeProviderUnreachable, err, "batch download").
			AddContext("provider", s.provider.name).AddContext("blobs", len(names))
	}
	s.provider.RoundTrips++
	out := make(map[string]Blob, len(names))
	for _, name := range names {
		b := s.acct.blobs[name]
		b.Data = append([]byte(nil), b.Data...)
		out[name] = b
	}
	return out, nil
}

// Has reports whether a blob exists, as a metadata-only check (no
// simulated transfer; the cost is part of the session's listing
// exchange, which the simulation does not charge).
func (s *Session) Has(name string) bool {
	_, ok := s.acct.blobs[name]
	return ok
}

// Get downloads a blob through the anonymizer; the transfer costs
// WireSize bytes downstream.
func (s *Session) Get(p *sim.Proc, name string) (Blob, error) {
	blob, ok := s.acct.blobs[name]
	if !ok {
		return Blob{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if _, err := s.anon.Fetch(p, anonnet.Request{
		SiteNode: s.provider.NodeName(), SendBytes: 2048, RecvBytes: blob.WireSize,
	}); err != nil {
		return Blob{}, nymerr.Wrap(CodeProviderUnreachable, err, "download").
			AddContext("provider", s.provider.name).AddContext("blob", name)
	}
	s.provider.RoundTrips++
	blob.Data = append([]byte(nil), blob.Data...)
	return blob, nil
}

// List returns the names of the account's blobs (order unspecified).
func (s *Session) List() []string {
	out := make([]string, 0, len(s.acct.blobs))
	for name := range s.acct.blobs {
		out = append(out, name)
	}
	return out
}

// Delete removes a blob.
func (s *Session) Delete(name string) error {
	blob, ok := s.acct.blobs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	s.acct.used -= blob.WireSize
	delete(s.acct.blobs, name)
	return nil
}
