// Command experiments regenerates the paper's quantitative claims as
// printed tables (the counterpart of EXPERIMENTS.md; timing-shaped series
// live in the go-test benchmarks):
//
//	go run ./cmd/experiments            # all experiments
//	go run ./cmd/experiments -only e3   # one of e1, e3, e4, e8, e11, e12
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/big"
	"strings"
	"time"

	"jointadmin"
	"jointadmin/internal/daemon"
	"jointadmin/internal/delegation"
	"jointadmin/internal/obs"
	"jointadmin/internal/sharedrsa"
	"jointadmin/internal/sim"
)

func main() {
	only := flag.String("only", "", "run a single experiment: e1, e3, e4, e8, e11, e12")
	trials := flag.Int("trials", 300, "availability trials per cell")
	flag.Parse()
	run := func(id string, f func() error) {
		if *only != "" && *only != id {
			return
		}
		if err := f(); err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		fmt.Println()
	}
	run("e1", e1KeygenShape)
	run("e3", func() error { return e3Availability(*trials) })
	run("e4", e4TrustLiability)
	run("e8", e8Collusion)
	run("e11", e11Observability)
	run("e12", e12DelegationScenarios)
}

// e1KeygenShape: keygen vs joint signature timing (Section 3.1).
func e1KeygenShape() error {
	fmt.Println("E1/E2 — shared keygen vs joint signature (Malkin et al. shape)")
	fmt.Println("bits   n   keygen        sign        attempts")
	for _, bits := range []int{128, 256} {
		start := time.Now()
		res, err := sharedrsa.GenerateShared(sharedrsa.Config{Parties: 3, Bits: bits})
		if err != nil {
			return err
		}
		keygen := time.Since(start)
		msg := []byte("probe")
		start = time.Now()
		const signReps = 20
		for i := 0; i < signReps; i++ {
			if _, err := sharedrsa.SignJointly(msg, res.Public, res.Shares); err != nil {
				return err
			}
		}
		sign := time.Since(start) / signReps
		fmt.Printf("%4d   3   %-12v  %-10v  %d\n", bits, keygen.Round(time.Millisecond), sign.Round(time.Microsecond), res.Attempts)
	}
	fmt.Println("shape: keygen is a heavy rejection search; signing is orders of magnitude cheaper.")
	return nil
}

// e3Availability: the Section 3.3 availability table.
func e3Availability(trials int) error {
	fmt.Println("E3 — m-of-n signature availability under domain downtime (n = 7)")
	fmt.Println("          p=0.05     p=0.10     p=0.20     p=0.30")
	for _, m := range []int{7, 6, 5, 4, 3} {
		fmt.Printf("m=%d   ", m)
		for _, p := range []float64{0.05, 0.10, 0.20, 0.30} {
			res, err := sim.RunAvailability(sim.AvailabilityConfig{
				N: 7, M: m, Downtime: p, Trials: trials, Seed: 42, Bits: 512,
			})
			if err != nil {
				return err
			}
			fmt.Printf("  %5.3f    ", res.Rate())
		}
		fmt.Println()
	}
	fmt.Println("every successful trial is a real quorum signature; n-of-n (m=7) collapses,")
	fmt.Println("lower thresholds restore availability at the cost of full consensus.")
	return nil
}

// e4TrustLiability: the Case I vs Case II forgery table.
func e4TrustLiability() error {
	fmt.Println("E4 — forgery after compromising k of 3 domains")
	fmt.Println("k    Case I (lock box)    Case II (shared key)")
	for k := 0; k <= 3; k++ {
		res, err := sim.RunForgery(sim.ForgeryConfig{Domains: 3, Bits: 512}, k)
		if err != nil {
			return err
		}
		fmt.Printf("%d    %-20v %v\n", k, res.CaseIForged, res.CaseIIForged)
	}
	fmt.Println("Case I is a single point of trust failure; Case II requires ALL domains.")
	return nil
}

// e8Collusion: collusion privacy of the n-of-n sharing.
func e8Collusion() error {
	fmt.Println("E8 — colluding coalitions pooling their complete secret views (n = 5)")
	res, err := sharedrsa.GenerateShared(sharedrsa.Config{Parties: 5, Bits: 128})
	if err != nil {
		return err
	}
	msg := []byte("collusion probe")
	h := sharedrsa.HashMessage(msg, res.Public)
	fmt.Println("colluders   can sign   can factor N")
	for k := 1; k <= 5; k++ {
		fmt.Printf("%d/5         %-10v %v\n", k, canSign(res, h, k), canFactor(res, k))
	}
	fmt.Println("recovery of the private key requires every domain's view.")
	return nil
}

// canSign pools the first k d-shares and tries bounded trial correction,
// exactly as the collusion test in internal/sharedrsa does.
func canSign(res *sharedrsa.Result, h *big.Int, k int) bool {
	d := new(big.Int)
	for _, v := range res.Views[:k] {
		d.Add(d, v.DShare)
	}
	for j := 0; j <= len(res.Views); j++ {
		exp := new(big.Int).Add(d, big.NewInt(int64(j)))
		s := new(big.Int).Exp(h, exp, res.Public.N)
		if new(big.Int).Exp(s, res.Public.E, res.Public.N).Cmp(h) == 0 {
			return true
		}
	}
	return false
}

// e11Observability: the authorization protocol's per-step cost profile,
// measured through an injected internal/obs registry — the same registry
// coalitiond exports over -metrics-addr. The experiment is self-checking:
// the counters must reconcile exactly with the driven workload.
func e11Observability() error {
	fmt.Println("E11 — per-step latency of the Section 4.3 protocol (injected obs registry)")
	reg := obs.NewRegistry()
	a, err := jointadmin.NewAlliance("obs", []string{"D1", "D2", "D3"})
	if err != nil {
		return err
	}
	for i, u := range []string{"alice", "bob", "carol"} {
		if err := a.EnrollUser([]string{"D1", "D2", "D3"}[i], u); err != nil {
			return err
		}
	}
	if err := a.GrantThreshold("G_write", 2, "alice", "bob", "carol"); err != nil {
		return err
	}
	srv, err := a.NewServer("P")
	if err != nil {
		return err
	}
	srv.Authz().Instrument(reg)
	if err := srv.CreateObject("O", map[string][]string{"G_write": {"write"}}, []byte("v0")); err != nil {
		return err
	}

	const approvals, denials = 40, 10
	write := func(content string, signers ...string) error {
		_, err := a.Submit(context.Background(), srv, jointadmin.RequestSpec{
			Group: "G_write", Op: "write", Object: "O", Payload: []byte(content), Signers: signers,
		})
		return err
	}
	for i := 0; i < approvals; i++ {
		a.Clock().Tick()
		if err := write("v", "alice", "bob"); err != nil {
			return err
		}
	}
	for i := 0; i < denials; i++ {
		a.Clock().Tick()
		if err := write("x", "alice"); err == nil {
			return fmt.Errorf("single-signer write unexpectedly approved")
		}
	}

	snap := reg.Snapshot()
	fmt.Println("step              count       mean        p50        p99")
	for _, h := range snap.Histograms {
		if !strings.HasPrefix(h.Name, "authz_step_seconds{") {
			continue
		}
		label := strings.TrimSuffix(strings.TrimPrefix(h.Name, `authz_step_seconds{step="`), `"}`)
		fmt.Printf("%-16s %6d  %9s  %9s  %9s\n", label, h.Count,
			time.Duration(h.Mean()*float64(time.Second)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.5)*float64(time.Second)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.99)*float64(time.Second)).Round(time.Microsecond))
	}
	// The registry must reconcile with the workload exactly.
	if got := snap.CounterValue("authz_requests_total"); got != approvals+denials {
		return fmt.Errorf("authz_requests_total = %d, want %d", got, approvals+denials)
	}
	if got := snap.CounterValue("authz_allowed_total"); got != approvals {
		return fmt.Errorf("authz_allowed_total = %d, want %d", got, approvals)
	}
	if got := snap.CounterValue(`authz_denied_total{step="step3_cosign"}`); got != denials {
		return fmt.Errorf("authz_denied_total{step3} = %d, want %d", got, denials)
	}
	fmt.Printf("reconciled: %d requests = %d approved + %d denied at step3_cosign\n",
		approvals+denials, approvals, denials)
	fmt.Println("the dominant cost is signature verification (step1/step3), matching the")
	fmt.Println("SPKI-reconstruction observation that chain evaluation is the hot path.")
	return nil
}

// e12DelegationScenarios: the eight-scenario ReBAC suite (the OpenFGA
// table mirrored in internal/delegation.Scenarios), driven end to end
// through the coalition daemon: every grant is a jointly signed
// delegation or group-graph certificate, every check a real authorization
// decision. Scenarios 3, 7 and 8 must refuse; the experiment is
// self-checking and reconciles the delegation metrics afterwards.
func e12DelegationScenarios() error {
	fmt.Println("E12 — delegation & relationship scenarios through the daemon")
	reg := obs.NewRegistry()
	ctx := context.Background()
	// Each scenario runs on a fresh daemon (its own alliance and server)
	// so revocations and clock advances cannot leak across rows; the
	// metrics registry is shared so the totals reconcile at the end.
	fresh := func() (*daemon.Daemon, error) {
		return daemon.New(daemon.Config{
			Domains: []string{"D1", "D2", "D3"},
			Users:   []string{"alice", "bob", "carol", "dave"},
			Metrics: reg,
		})
	}
	must := func(d *daemon.Daemon, cmd daemon.Command) error {
		if r := d.Handle(ctx, cmd); !r.OK {
			return fmt.Errorf("%s %s: %s", cmd.Cmd, cmd.Op, r.Detail)
		}
		return nil
	}
	// granted reports whether a delegated read by user (through group g)
	// is approved.
	granted := func(d *daemon.Daemon, g, user string) bool {
		return d.Handle(ctx, daemon.Command{Cmd: "read", Group: g, Delegated: true, Signers: []string{user}}).OK
	}
	checks := map[int]func() (bool, error){
		1: func() (bool, error) { // parent-folder inheritance
			d, err := fresh()
			if err != nil {
				return false, err
			}
			if err := must(d, daemon.Command{Cmd: "mutate", Op: "delegate", Group: "G_folder", Data: "alice:0:read"}); err != nil {
				return false, err
			}
			if err := must(d, daemon.Command{Cmd: "mutate", Op: "graph-link", Group: "G_folder", Data: "G_read:1"}); err != nil {
				return false, err
			}
			return granted(d, "G_folder", "alice"), nil
		},
		2: func() (bool, error) { // guardian traversal
			d, err := fresh()
			if err != nil {
				return false, err
			}
			if err := must(d, daemon.Command{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "alice:1:read"}); err != nil {
				return false, err
			}
			if err := must(d, daemon.Command{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "alice>bob:0:read"}); err != nil {
				return false, err
			}
			return granted(d, "G_read", "bob"), nil
		},
		3: func() (bool, error) { // exclusion blocking — must refuse
			d, err := fresh()
			if err != nil {
				return false, err
			}
			if err := must(d, daemon.Command{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "alice:0:read"}); err != nil {
				return false, err
			}
			if err := must(d, daemon.Command{Cmd: "mutate", Op: "revoke", Group: "G_read", Data: "alice"}); err != nil {
				return false, err
			}
			return granted(d, "G_read", "alice"), nil
		},
		4: func() (bool, error) { // wildcard access
			d, err := fresh()
			if err != nil {
				return false, err
			}
			if err := must(d, daemon.Command{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "alice:0:*"}); err != nil {
				return false, err
			}
			return granted(d, "G_read", "alice"), nil
		},
		5: func() (bool, error) { // emergency context (break-glass window)
			d, err := fresh()
			if err != nil {
				return false, err
			}
			if err := must(d, daemon.Command{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "alice:0:read"}); err != nil {
				return false, err
			}
			if !granted(d, "G_read", "alice") {
				return false, fmt.Errorf("break-glass grant refused inside its window")
			}
			// Past the validity window the same grant must be refused.
			d.Alliance().Clock().Advance(2_000_000)
			return !granted(d, "G_read", "alice"), nil
		},
		6: func() (bool, error) { // chain attenuation
			d, err := fresh()
			if err != nil {
				return false, err
			}
			if err := must(d, daemon.Command{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "alice:1:read,write"}); err != nil {
				return false, err
			}
			if err := must(d, daemon.Command{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "alice>bob:0:write"}); err != nil {
				return false, err
			}
			if granted(d, "G_read", "bob") {
				return false, fmt.Errorf("op dropped mid-chain still granted downstream")
			}
			if err := must(d, daemon.Command{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "carol:1:read,write"}); err != nil {
				return false, err
			}
			if err := must(d, daemon.Command{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "carol>dave:0:read"}); err != nil {
				return false, err
			}
			return granted(d, "G_read", "dave"), nil
		},
		7: func() (bool, error) { // depth exhaustion — must refuse
			d, err := fresh()
			if err != nil {
				return false, err
			}
			if err := must(d, daemon.Command{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "alice:0:read"}); err != nil {
				return false, err
			}
			r := d.Handle(ctx, daemon.Command{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "alice>bob:0:read"})
			return r.OK, nil // refusal expected at install time
		},
		8: func() (bool, error) { // mid-chain revocation — must refuse
			d, err := fresh()
			if err != nil {
				return false, err
			}
			if err := must(d, daemon.Command{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "alice:1:read"}); err != nil {
				return false, err
			}
			if err := must(d, daemon.Command{Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "alice>bob:0:read"}); err != nil {
				return false, err
			}
			if !granted(d, "G_read", "bob") {
				return false, fmt.Errorf("chain refused before revocation")
			}
			if err := must(d, daemon.Command{Cmd: "mutate", Op: "revoke", Group: "G_read", Data: "alice"}); err != nil {
				return false, err
			}
			return granted(d, "G_read", "bob"), nil
		},
	}
	fmt.Println("id  scenario                  want     got")
	for _, sc := range delegation.Scenarios {
		check, ok := checks[sc.ID]
		if !ok {
			return fmt.Errorf("no daemon check for scenario %d (%s)", sc.ID, sc.Name)
		}
		got, err := check()
		if err != nil {
			return fmt.Errorf("scenario %d (%s): %w", sc.ID, sc.Name, err)
		}
		want := !sc.Refuses
		verdict := map[bool]string{true: "granted", false: "refused"}
		fmt.Printf("%2d  %-25s %-8s %s\n", sc.ID, sc.Name, verdict[want], verdict[got])
		if got != want {
			return fmt.Errorf("scenario %d (%s): got %s, want %s", sc.ID, sc.Name, verdict[got], verdict[want])
		}
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue(delegation.MetricDepthExhausted); got < 1 {
		return fmt.Errorf("%s = %d, want >= 1 (scenario 7)", delegation.MetricDepthExhausted, got)
	}
	if got := snap.CounterValue(delegation.MetricChains); got < 8 {
		return fmt.Errorf("%s = %d, want >= 8", delegation.MetricChains, got)
	}
	fmt.Printf("reconciled: %d chains accepted, %d graph links, %d depth exhaustions, %d link-revocation denials\n",
		snap.CounterValue(delegation.MetricChains),
		snap.CounterValue(delegation.MetricGraphLinks),
		snap.CounterValue(delegation.MetricDepthExhausted),
		snap.CounterValue(delegation.MetricLinkRevocationDenials))
	fmt.Println("scenarios 3, 7 and 8 refuse: exclusion, depth bound and mid-chain revocation")
	fmt.Println("are enforced in the derivation, not by the client.")
	return nil
}

// canFactor pools the first k p-shares; only the full sum divides N.
func canFactor(res *sharedrsa.Result, k int) bool {
	p := new(big.Int)
	for _, v := range res.Views[:k] {
		p.Add(p, v.PShare)
	}
	if p.Cmp(big.NewInt(1)) <= 0 {
		return false
	}
	return new(big.Int).Mod(res.Public.N, p).Sign() == 0
}
