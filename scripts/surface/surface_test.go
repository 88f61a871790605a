package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestFixture runs the lint over testdata/fixture, a module that plants
// each case the rule distinguishes.
func TestFixture(t *testing.T) {
	root := filepath.Join("testdata", "fixture")
	r, err := check(root, filepath.Join(root, "allow.txt"), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"a.UncalledExported has no non-test caller",
		"a.uncalledUnexported has no non-test caller",
		"a.TestOnly has no non-test caller",
		"allow-list entry a.Stale is stale",
		"allow-list entry a.Missing names no declaration",
		"allow-list entry a.NoReason gives no reason",
	}
	for _, w := range want {
		n := 0
		for _, v := range r.violations {
			if strings.Contains(v, w) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%d violations report %q, want 1", n, w)
		}
	}
	if len(r.violations) != len(want) {
		t.Errorf("violations:\n%s\nwant exactly the %d above", strings.Join(r.violations, "\n"), len(want))
	}
	// Not flagged: Stringy.String (fmt.Stringer), Square.Area (the
	// fixture's Shape), ProgramOnly (called by cmd/prog) and Allowed.
	if want := []string{"a.Sum"}; !slices.Equal(r.ownOnly, want) {
		t.Errorf("own-package-only names = %v, want %v", r.ownOnly, want)
	}
}

// TestByPackage pins the summary line's per-package breakdown: most
// names first, ties by package name.
func TestByPackage(t *testing.T) {
	got := byPackage([]string{"model.Run", "logic.A", "authz.X", "logic.B", "authz.Y.Z", "logic.C"})
	if want := "logic 3, authz 2, model 1"; got != want {
		t.Errorf("byPackage = %q, want %q", got, want)
	}
}

// TestRules plants, in memory, violations of every rule row in the real
// packages the rows guard, among them spellings a text grep misses (an
// aliased import, a receiver not named s, a method value, an exponent
// read into a local), and requires each plant to break exactly its own
// row, once. The unplanted tree breaks none.
func TestRules(t *testing.T) {
	root := filepath.Join("..", "..")
	allow := filepath.Join(root, "scripts", "surface", "allow.txt")
	r, err := check(root, allow, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.enforce()
	if len(r.violations) > 0 {
		t.Fatalf("the unplanted tree has violations:\n%s", strings.Join(r.violations, "\n"))
	}

	// edit plants by rewriting a real file: old must be in it.
	edit := func(file, old, new string) string {
		b, err := os.ReadFile(filepath.Join(root, file))
		if err != nil || !strings.Contains(string(b), old) {
			t.Fatalf("%s: cannot plant: %q not found (%v)", file, old, err)
		}
		return strings.Replace(string(b), old, new, 1)
	}
	plants := []struct{ rule, file, src string }{
		{"wire-codec", "internal/transport/plant.go", `package transport; import _ "encoding/json"`},
		{"hot-path-imports", "internal/authz/decode.go", edit("internal/authz/decode.go", "package authz\n", "package authz\n\nimport _ \"reflect\"\n")},
		{"one-request-parser", "internal/daemon/plant_unmarshal.go", `package daemon
import ("encoding/json"; "jointadmin/internal/authz")
func init() { var req authz.AccessRequest; _ = json.Unmarshal(nil, &req) }`},
		{"one-request-parser", "internal/replication/plant.go", `package replication
import ("encoding/json"; "jointadmin/internal/authz")
func init() { p := new(authz.AccessRequest); _ = json.NewDecoder(nil).Decode(p) }`},
		{"one-signed-form", "internal/pki/plant_json.go", `package pki
import "encoding/json"
func init() { b, _ := json.Marshal(Identity{}); _ = b }`},
		{"one-path/deprecated", "internal/clock/plant.go", "package clock\n\n// Now is a compatibility shim for the old clock.\n"},
		{"one-path/setters", "internal/authz/plant_setter.go", `package authz
func (s *Server) SetVerbose(bool) {}
func init() { (*Server).SetVerbose(nil, true) }`},
		{"one-return-path/frame-address", "internal/daemon/plant_addr.go", `package daemon; func init() { _ = "cmd@" + "127.0.0.1:7707" }`},
		{"one-return-path/frame-address", "internal/replication/plant_field.go", `package replication
type plantHello struct{ returnAddr string }
var _ = plantHello{}`},
		{"one-return-path/add-peer", "internal/daemon/daemon.go", edit("internal/daemon/daemon.go",
			"\tnode.Instrument(d.reg)\n", "\tnode.Instrument(d.reg)\n\tnode.AddPeer(\"writer\", addr)\n")},
		{"one-issuance-point", "internal/coalition/plant.go", `package coalition
import "jointadmin/internal/clock"
func init() { var m *member; _, _ = m.CA.IssueIdentity("mallory", clock.Interval{}) }`},
		// pki.Issue mints an identity certificate only when it signs an
		// Identity.
		{"one-issuance-point", "internal/daemon/plant_issue.go", `package daemon
import "jointadmin/internal/pki"
func init() { _, _ = pki.Issue(pki.Identity{}, nil); _, _ = pki.Issue(pki.Attribute{}, nil) }`},
		// a.Join is a method value; strings.Join stays clean by its type.
		{"rekey-path", "internal/daemon/plant_rekey.go", `package daemon
import ("strings"; "jointadmin")
func init() { var a *jointadmin.Alliance; _ = a.Join; _ = strings.Join }`},
		// A CA made in any function of the coalition but domainCA.
		{"one-ca-keygen", "internal/coalition/coalition.go", edit("internal/coalition/coalition.go",
			"\tr := &Rekey{join: join, domain: domain, names: names}\n",
			"\tr := &Rekey{join: join, domain: domain, names: names}\n\t_, _ = authority.NewDomainCA(\"CA_\"+domain, c.cfg.KeyBits, c.clk)\n")},
		{"exponent/private", "internal/sharedrsa/sign.go", edit("internal/sharedrsa/sign.go",
			"\th := hashToModulus(msg, pk.N)\n\tvar work", "\te := pk.E\n\t_ = new(big.Int).Exp(sig.S, e, pk.N)\n\th := hashToModulus(msg, pk.N)\n\tvar work")},
		// A share raised on math/big beside the power table.
		{"exponent/private", "internal/sharedrsa/partial.go", edit("internal/sharedrsa/partial.go",
			"\tps, err := partials(msg, pk, []Share{sh})\n", "\t_ = new(big.Int).Exp(hashToModulus(msg, pk.N), sh.D, pk.N)\n\tps, err := partials(msg, pk, []Share{sh})\n")},
		{"exponent/public-arg", "internal/sharedrsa/batch.go", edit("internal/sharedrsa/batch.go", "t.Exp(it.Sig.S, r, pk.N)", "t.Exp(it.Sig.S, pk.E, pk.N)")},
		{"exponent/public-read", "internal/sharedrsa/crt.go", edit("internal/sharedrsa/crt.go", "\tm1.Exp(&r, k.dP, k.p)", "\te := k.pub.E\n\tm1.Exp(&r, e, k.p)")},
		{"one-prime-search", "internal/pki/plant_prime.go", `package pki
import "crypto/rand"
func init() { _, _ = rand.Prime(rand.Reader, 64) }`},
		{"one-prime-search", "internal/sharedrsa/plant_prime.go", `package sharedrsa
import "math/big"
func init() { _ = big.NewInt(7).ProbablyPrime }`},
		{"one-partial-loop", "internal/authority/plant_partial.go", `package authority
import "jointadmin/internal/sharedrsa"
func init() {
	for _, d := range []*domainAgent{} { _, _ = sharedrsa.PartialSign(nil, sharedrsa.PublicKey{}, d.Share()) }
}`},
		{"one-decider/replay", "internal/authz/plant_replay.go", `package authz
func init() { var srv *Server; _, _ = srv.replay(nil, nil, nil, nil) }`},
		{"one-decider/replay", "internal/authz/authz.go", edit("internal/authz/authz.go",
			"return s.replay(&d, st, sc, &req)", "_, _ = s.replay(&d, st, sc, &req)\n\t\treturn s.replay(&d, st, sc, &req)")},
		{"one-decider/pooled-forks", "internal/logic/plant_fork.go", `package logic
func (e *Engine) ForkPooled() *Engine { return e.Fork() }
func init() { _ = (*Engine).ForkPooled }`},
		{"one-decider/axioms", "internal/daemon/plant_axiom.go", `package daemon
import lg "jointadmin/internal/logic"
func init() { _ = lg.A36CompoundSays }`},
		{"one-decider/walk-budget", "internal/delegation/plant.go", `package delegation; func init() { _ = map[string]int{"G_write": Unbounded} }`},
		{"one-idealizer", "internal/authz/plant_literal.go", `package authz
import lg "jointadmin/internal/logic"
func init() { _ = lg.MemberOf{} }`},
		// An identity or attribute certificate is a request's, and
		// authz.go verifies it: only the belief kinds' and the CRL's
		// verification is the table's.
		{"one-belief-table/verify", "internal/authz/plant_verify.go", `package authz
import ("jointadmin/internal/pki"; "jointadmin/internal/sharedrsa")
func init() {
	_ = pki.Verify(pki.Signed[pki.CRL]{}, sharedrsa.PublicKey{}, 0)
	_ = pki.Verify(pki.Signed[pki.Identity]{}, sharedrsa.PublicKey{}, 0)
}`},
		{"one-belief-table/decode", "internal/authz/plant_belief.go", `package authz
import "jointadmin/internal/pki"
func init() { _, _ = pki.Unmarshal[pki.Identity](nil) }`},
		// A method value renders as surely as a call.
		{"whole-proof-render", "internal/authz/plant_render.go", `package authz
import "jointadmin/internal/logic"
func init() { var eng *logic.Engine; render := eng.Proof().String; _ = render }`},
		{"one-frame-format/json", "internal/wal/plant_json.go", `package wal
import "encoding/json"
func init() { _, _ = json.Marshal(Record{}) }`},
		{"one-frame-format/encode", "internal/wal/plant_encode.go", `package wal
func init() { _, _ = encodeFrame(Record{}) }`},
		{"logic-ownership", "internal/logic/plant_sync.go", `package logic; import _ "sync/atomic"`},
	}
	extra := map[string]string{}
	guarded := map[string]bool{}
	for _, p := range plants {
		extra[p.file] = p.src
		guarded[p.rule] = true
	}
	r, err = check(root, allow, extra)
	if err != nil {
		t.Fatal(err)
	}
	r.enforce()
	for _, p := range plants {
		var got []string
		for _, v := range r.violations {
			if strings.Contains(v, "/"+p.file+":") {
				got = append(got, v)
			}
		}
		if len(got) != 1 || !strings.Contains(got[0], ": rule "+p.rule+": ") {
			t.Errorf("plant %s: got %d violations, want one of rule %s:\n%s", p.file, len(got), p.rule, strings.Join(got, "\n"))
		}
	}
	if len(r.violations) != len(plants) {
		t.Errorf("%d violations for %d plants:\n%s", len(r.violations), len(plants), strings.Join(r.violations, "\n"))
	}
	for _, rl := range rules {
		if !guarded[rl.name] {
			t.Errorf("rule %s has no plant", rl.name)
		}
	}
}
