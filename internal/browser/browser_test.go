package browser

import (
	"strings"
	"testing"

	"nymix/internal/anonnet"
	"nymix/internal/anonnet/tor"
	"nymix/internal/guestos"
	"nymix/internal/hypervisor"
	"nymix/internal/sim"
	"nymix/internal/vm"
	"nymix/internal/webworld"
)

// rig: a hypervisor with one wired nymbox running Tor.
type rig struct {
	eng   *sim.Engine
	world *webworld.World
	host  *hypervisor.Host
	anon  *vm.VM
	comm  *vm.VM
	tor   *tor.Client
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine(31)
	net, world := webworld.BuildDefault(eng)
	host, err := hypervisor.New(eng, net, hypervisor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	host.ConnectUplink(world.Gateway(), webworld.UplinkConfig)
	anon, err := host.LaunchVM(vm.Config{
		Name: "anon-0", Role: guestos.RoleAnonVM,
		RAMBytes: 384 * guestos.MiB, DiskBytes: 128 * guestos.MiB, Anonymizer: "tor",
	})
	if err != nil {
		t.Fatal(err)
	}
	comm, err := host.LaunchVM(vm.Config{
		Name: "comm-0", Role: guestos.RoleCommVM,
		RAMBytes: 128 * guestos.MiB, DiskBytes: 16 * guestos.MiB, Anonymizer: "tor",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := host.WireNymbox(anon, comm); err != nil {
		t.Fatal(err)
	}
	tc := tor.New(net, comm.Name(), world.Relays(), world.Resolver())
	r := &rig{eng: eng, world: world, host: host, anon: anon, comm: comm, tor: tc}
	eng.Go("setup", func(p *sim.Proc) {
		if err := anon.Boot(p); err != nil {
			t.Errorf("boot anon: %v", err)
		}
		if err := comm.Boot(p); err != nil {
			t.Errorf("boot comm: %v", err)
		}
		if err := tc.Start(p); err != nil {
			t.Errorf("start tor: %v", err)
		}
	})
	eng.Run()
	return r
}

func (r *rig) browser() *Browser {
	return New(r.world, r.host.Net(), r.anon, r.comm.Name(), r.tor, Config{})
}

func run(t *testing.T, r *rig, fn func(p *sim.Proc)) {
	t.Helper()
	r.eng.Go("test", fn)
	r.eng.Run()
}

func TestVisitUpdatesClientAndServerState(t *testing.T) {
	r := newRig(t)
	b := r.browser()
	var res VisitResult
	run(t, r, func(p *sim.Proc) {
		var err error
		res, err = b.Visit(p, "bbc.co.uk")
		if err != nil {
			t.Errorf("visit: %v", err)
		}
	})
	if !res.FirstVisit || res.Bytes <= 0 {
		t.Fatalf("res = %+v", res)
	}
	if b.CacheBytes() == 0 {
		t.Fatal("cache did not grow")
	}
	if len(b.History()) != 1 || !strings.Contains(b.History()[0], "bbc.co.uk") {
		t.Fatalf("history = %v", b.History())
	}
	visits := r.world.Site("bbc.co.uk").Visits()
	if len(visits) != 1 {
		t.Fatalf("server saw %d visits", len(visits))
	}
	v := visits[0]
	if v.SourceAddr != r.tor.ExitIdentity() {
		t.Fatalf("server saw source %q, want tor exit", v.SourceAddr)
	}
	if v.Fingerprint != BaseFingerprint {
		t.Fatalf("fingerprint = %q", v.Fingerprint)
	}
	if v.CookieID == "" {
		t.Fatal("no cookie set")
	}
}

func TestRevisitIsCheaperAndKeepsCookie(t *testing.T) {
	r := newRig(t)
	b := r.browser()
	var first, second VisitResult
	run(t, r, func(p *sim.Proc) {
		first, _ = b.Visit(p, "bbc.co.uk")
		second, _ = b.Visit(p, "bbc.co.uk")
	})
	if second.Bytes >= first.Bytes {
		t.Fatalf("revisit %d >= first %d", second.Bytes, first.Bytes)
	}
	if second.FirstVisit {
		t.Fatal("second visit marked first")
	}
	if first.Cookie != second.Cookie {
		t.Fatal("cookie changed across visits")
	}
}

func TestLoginStoresCredentialsAndAccount(t *testing.T) {
	r := newRig(t)
	b := r.browser()
	run(t, r, func(p *sim.Proc) {
		if _, err := b.Login(p, "twitter.com", "dissident47", "hunter2"); err != nil {
			t.Errorf("login: %v", err)
		}
		if _, err := b.Post(p, "twitter.com", "protest at noon"); err != nil {
			t.Errorf("post: %v", err)
		}
	})
	cred, ok := b.Credentials("twitter.com")
	if !ok || cred.Account != "dissident47" {
		t.Fatalf("creds = %+v, %v", cred, ok)
	}
	visits := r.world.Site("twitter.com").Visits()
	if len(visits) != 2 {
		t.Fatalf("visits = %d", len(visits))
	}
	if visits[1].Action != "post" || visits[1].Account != "dissident47" || visits[1].Payload != "protest at noon" {
		t.Fatalf("post visit = %+v", visits[1])
	}
	// Saved credentials allow LoginSaved.
	run(t, r, func(p *sim.Proc) {
		if _, err := b.LoginSaved(p, "twitter.com"); err != nil {
			t.Errorf("login saved: %v", err)
		}
	})
}

func TestPostWithoutLoginFails(t *testing.T) {
	r := newRig(t)
	b := r.browser()
	run(t, r, func(p *sim.Proc) {
		if _, err := b.Post(p, "twitter.com", "x"); err == nil {
			t.Error("post without login succeeded")
		}
	})
}

func TestThirdPartyTrackersSeeCrossSiteCookie(t *testing.T) {
	r := newRig(t)
	b := r.browser()
	run(t, r, func(p *sim.Proc) {
		b.Visit(p, "gmail.com")   // embeds doubleclick
		b.Visit(p, "youtube.com") // embeds doubleclick
	})
	log := r.world.TrackerLog()
	var dc []webworld.Visit
	for _, v := range log {
		if v.Site == "doubleclick.net" {
			dc = append(dc, v)
		}
	}
	if len(dc) != 2 {
		t.Fatalf("doubleclick observations = %d", len(dc))
	}
	if dc[0].CookieID != dc[1].CookieID {
		t.Fatal("tracker cookie not shared across sites (it must be, within one nym)")
	}
	if dc[0].Payload == dc[1].Payload {
		t.Fatal("expected distinct first-party pages in tracker log")
	}
}

func TestEvercookieSurvivesClearCookies(t *testing.T) {
	r := newRig(t)
	b := r.browser()
	var before, after string
	run(t, r, func(p *sim.Proc) {
		b.Visit(p, "gmail.com")
		log := r.world.TrackerLog()
		before = log[len(log)-1].CookieID
		b.Stain("exploit-77") // plants evercookies
		b.ClearCookies()
		b.Visit(p, "gmail.com")
		log = r.world.TrackerLog()
		after = log[len(log)-1].CookieID
	})
	if after == before {
		t.Fatal("tracker cookie survived clearing without evercookie")
	}
	if !strings.HasPrefix(after, "ever-exploit-77") {
		t.Fatalf("evercookie not resurrected: %q", after)
	}
}

func TestStainMakesFingerprintUnique(t *testing.T) {
	r := newRig(t)
	b := r.browser()
	if b.Fingerprint() != BaseFingerprint {
		t.Fatalf("clean fingerprint = %q", b.Fingerprint())
	}
	b.Stain("mullenize-1")
	if b.Fingerprint() == BaseFingerprint {
		t.Fatal("stain did not change fingerprint")
	}
	if !b.Stained() {
		t.Fatal("Stained() = false")
	}
}

func TestCacheLRUEvictionAtCap(t *testing.T) {
	r := newRig(t)
	b := New(r.world, r.host.Net(), r.anon, r.comm.Name(), r.tor, Config{CacheCap: 6 << 20})
	run(t, r, func(p *sim.Proc) {
		b.Visit(p, "gmail.com")    // ~2.4 MB fill
		b.Visit(p, "facebook.com") // ~4.6 MB fill -> evicts gmail
	})
	if b.CacheBytes() > 6<<20 {
		t.Fatalf("cache %d exceeds cap", b.CacheBytes())
	}
	if _, ok := b.cacheBySite["facebook.com"]; !ok {
		t.Fatal("MRU site evicted")
	}
}

func TestProfilePersistsThroughDiskRoundTrip(t *testing.T) {
	r := newRig(t)
	b := r.browser()
	run(t, r, func(p *sim.Proc) {
		b.Login(p, "twitter.com", "alice", "pw")
		b.Visit(p, "gmail.com")
	})
	snap := r.anon.Disk().Snapshot()

	// A brand-new browser on a restored disk sees the same profile.
	if err := r.anon.Disk().Restore(snap); err != nil {
		t.Fatal(err)
	}
	b2 := r.browser()
	cred, ok := b2.Credentials("twitter.com")
	if !ok || cred.Account != "alice" {
		t.Fatalf("restored creds = %+v, %v", cred, ok)
	}
	if len(b2.History()) != len(b.History()) {
		t.Fatalf("history %d != %d", len(b2.History()), len(b.History()))
	}
	if b2.CacheBytes() != b.CacheBytes() {
		t.Fatalf("cache %d != %d", b2.CacheBytes(), b.CacheBytes())
	}
	var res VisitResult
	run(t, r, func(p *sim.Proc) { res, _ = b2.Visit(p, "gmail.com") })
	if res.FirstVisit {
		t.Fatal("restored profile lost cache state")
	}
}

func TestUnknownSite(t *testing.T) {
	r := newRig(t)
	b := r.browser()
	run(t, r, func(p *sim.Proc) {
		if _, err := b.Visit(p, "no-such.example"); err == nil {
			t.Error("unknown site visit succeeded")
		}
	})
}

func TestDownloadBypassesCache(t *testing.T) {
	r := newRig(t)
	b := r.browser()
	run(t, r, func(p *sim.Proc) {
		before := b.CacheBytes()
		if _, err := b.Download(p, "kernel.deterlab.net", 1<<20); err != nil {
			t.Errorf("download: %v", err)
		}
		if b.CacheBytes() != before {
			t.Error("download polluted the cache")
		}
	})
}

func TestTwoNymsHaveUnlinkableCookiesButSameFingerprint(t *testing.T) {
	// The structural core of Nymix: separate nymboxes share nothing
	// client-side, yet look identical to fingerprinting.
	r := newRig(t)
	b1 := r.browser()

	anon2, err := r.host.LaunchVM(vm.Config{
		Name: "anon-1", Role: guestos.RoleAnonVM,
		RAMBytes: 384 * guestos.MiB, DiskBytes: 128 * guestos.MiB, Anonymizer: "tor",
	})
	if err != nil {
		t.Fatal(err)
	}
	comm2, err := r.host.LaunchVM(vm.Config{
		Name: "comm-1", Role: guestos.RoleCommVM,
		RAMBytes: 128 * guestos.MiB, DiskBytes: 16 * guestos.MiB, Anonymizer: "tor",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.host.WireNymbox(anon2, comm2); err != nil {
		t.Fatal(err)
	}
	tor2 := tor.New(r.host.Net(), comm2.Name(), r.world.Relays(), r.world.Resolver())
	run(t, r, func(p *sim.Proc) {
		anon2.Boot(p)
		comm2.Boot(p)
		if err := tor2.Start(p); err != nil {
			t.Errorf("tor2: %v", err)
		}
	})
	b2 := New(r.world, r.host.Net(), anon2, comm2.Name(), tor2, Config{})
	run(t, r, func(p *sim.Proc) {
		b1.Visit(p, "gmail.com")
		b2.Visit(p, "gmail.com")
	})
	visits := r.world.Site("gmail.com").Visits()
	if len(visits) != 2 {
		t.Fatalf("visits = %d", len(visits))
	}
	if visits[0].CookieID == visits[1].CookieID {
		t.Fatal("nyms share a cookie")
	}
	if visits[0].Fingerprint != visits[1].Fingerprint {
		t.Fatal("nyms distinguishable by fingerprint")
	}
}

var _ anonnet.Transport = (*tor.Client)(nil)
