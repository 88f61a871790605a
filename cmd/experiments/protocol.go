package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"jointadmin"
	"jointadmin/internal/clock"
	"jointadmin/internal/daemon"
	"jointadmin/internal/delegation"
	"jointadmin/internal/logic"
	"jointadmin/internal/obs"
)

// outcome is one request of a protocol experiment: what the paper says
// the server decides, and what it decided ("approved" or "denied at
// <step>").
type outcome struct{ request, want, got string }

// checkOutcomes: every request was decided as the paper says.
func checkOutcomes(rows []outcome) error {
	for _, r := range rows {
		if r.got != r.want {
			return fmt.Errorf("%s: %s, want %s", r.request, r.got, r.want)
		}
	}
	return nil
}

func printOutcomes(rows []outcome) {
	fmt.Println("request                              want                      got")
	for _, r := range rows {
		fmt.Printf("%-36s %-25s %s\n", r.request, r.want, r.got)
	}
}

// decide submits spec to srv and names the outcome.
func decide(a *jointadmin.Alliance, srv *jointadmin.Server, request, want string, spec jointadmin.RequestSpec) outcome {
	dec, err := a.Submit(context.Background(), srv, spec)
	got := "approved"
	if err != nil {
		got = "error: " + err.Error()
		if dec.DeniedStep != "" {
			got = "denied at " + dec.DeniedStep
		}
	}
	return outcome{request: request, want: want, got: got}
}

// deployment is the Figure 1 alliance: three domains with one user each,
// writes 2-of-3 (G_write), reads 1-of-3 (G_read), on one object O.
func deployment() (*jointadmin.Alliance, *jointadmin.Server, error) {
	a, err := jointadmin.NewAlliance("fig1", []string{"D1", "D2", "D3"})
	if err != nil {
		return nil, nil, err
	}
	for i, u := range []string{"u1", "u2", "u3"} {
		if err := a.EnrollUser(a.Domains()[i], u); err != nil {
			return nil, nil, err
		}
	}
	if err := a.GrantThreshold("G_write", 2, "u1", "u2", "u3"); err != nil {
		return nil, nil, err
	}
	if err := a.GrantThreshold("G_read", 1, "u1", "u2", "u3"); err != nil {
		return nil, nil, err
	}
	srv, err := a.NewServer("P")
	if err != nil {
		return nil, nil, err
	}
	err = srv.CreateObject("O", map[string][]string{"G_write": {"write"}, "G_read": {"read"}}, []byte("v0"))
	return a, srv, err
}

var (
	writeSpec = jointadmin.RequestSpec{Group: "G_write", Op: "write", Object: "O", Payload: []byte("v"), Signers: []string{"u1", "u2"}}
	readSpec  = jointadmin.RequestSpec{Group: "G_read", Op: "read", Object: "O", Signers: []string{"u3"}}
)

// decideTime is the mean cost of deciding spec's request once signed,
// its certificates already verified by a first, untimed decision.
func decideTime(a *jointadmin.Alliance, srv *jointadmin.Server, spec jointadmin.RequestSpec, reps int) (time.Duration, error) {
	req, err := a.NewRequest(spec)
	if err != nil {
		return 0, err
	}
	decide := func() error {
		_, err := srv.Request(context.Background(), req)
		return err
	}
	if err := decide(); err != nil {
		return 0, err
	}
	return mean(reps, decide)
}

// ---- E5: the Figure 2 flows ----

func e5Authorization() error {
	const reps = 200
	fmt.Println("E5 — the Figure 2 flows through the 4-step protocol (§4.3)")
	a, srv, err := deployment()
	if err != nil {
		return err
	}
	lone := writeSpec
	lone.Signers = []string{"u1"}
	rows := []outcome{
		decide(a, srv, "2-of-3 write (u1, u2)", "approved", writeSpec),
		decide(a, srv, "write by a lone signer (u1)", "denied at step3_cosign", lone),
		decide(a, srv, "1-of-3 read (u3)", "approved", readSpec),
	}
	printOutcomes(rows)
	if err := checked(checkOutcomes(rows), "the 2-of-3 write and the read approve; a lone signer is denied at A38"); err != nil {
		return err
	}
	fmt.Printf("mean of %d, per request   sign + decide   decide (pre-signed, warm)\n", reps)
	for _, s := range []struct {
		name string
		spec jointadmin.RequestSpec
	}{{"2-of-3 write", writeSpec}, {"1-of-3 read", readSpec}} {
		both, err := mean(reps, func() error {
			_, err := a.Submit(context.Background(), srv, s.spec)
			return err
		})
		if err != nil {
			return err
		}
		warm, err := decideTime(a, srv, s.spec, reps)
		if err != nil {
			return err
		}
		fmt.Printf("%-25s %12v   %v\n", s.name, both.Round(time.Microsecond), warm.Round(time.Microsecond))
	}
	derive, err := derivationOnly(reps)
	if err != nil {
		return err
	}
	fmt.Printf("the logic alone (A10 → A22 → A9 on an idealized membership certificate): %v\n", derive.Round(time.Microsecond))
	fmt.Println("shape: a write costs more than a read (two signatures to make and check);")
	fmt.Println("RSA, not the logic, dominates a signed request.")
	return nil
}

// derivationOnly times the Section 4.3 derivation on an idealized
// certificate, signature checking already done: the logic layer's share
// of a decision.
func derivationOnly(reps int) (time.Duration, error) {
	eng := logic.NewEngine("P", clock.New(100))
	eng.Assume(logic.KeySpeaksFor{K: "KAA", T: logic.During(0, clock.Infinity).On("P"), Who: logic.P("AA")}, "")
	eng.Assume(logic.MembershipJurisdiction{Authority: logic.P("AA"), AuthorityName: "AA"}, "")
	eng.Assume(logic.SaysTimeJurisdiction{Authority: logic.P("AA"), Since: 0, Server: "P"}, "")
	cp := logic.CP(logic.P("U1").Bind("K1"), logic.P("U2").Bind("K2"), logic.P("U3").Bind("K3")).WithThreshold(2)
	body := logic.MemberOf{Who: cp, T: logic.During(50, 1_000_000), G: logic.G("G_write")}
	cert := logic.Sign(logic.AsMessage(logic.Says{Who: logic.P("AA"), T: logic.At(95), X: logic.AsMessage(body)}), "KAA")
	key, _ := eng.Store().KeyFor("AA", 100)
	return mean(reps, func() error {
		_, _, err := eng.VerifyCertificate(cert, key)
		return err
	})
}

// ---- E6: believe-until-revoked ----

func e6Revocation() error {
	const reps, unrelated = 200, 50
	fmt.Println("E6 — believe-until-revoked (§4.3, message 2 and statement 26)")
	a, srv, err := deployment()
	if err != nil {
		return err
	}
	rows := []outcome{decide(a, srv, "2-of-3 write before the revocation", "approved", writeSpec)}
	for i := 0; i < unrelated; i++ {
		g := fmt.Sprintf("G_tmp%d", i)
		if err := a.GrantThreshold(g, 1, "u1"); err != nil {
			return err
		}
		if err := a.Revoke(g, srv); err != nil {
			return err
		}
	}
	if err := a.Revoke("G_write", srv); err != nil {
		return err
	}
	a.Clock().Tick()
	rows = append(rows,
		decide(a, srv, "the same write after it", "denied at step2_threshold", writeSpec),
		decide(a, srv, "1-of-3 read (G_read untouched)", "approved", readSpec))
	printOutcomes(rows)
	if err := checked(checkOutcomes(rows), "the revocation denies the write that passed before it; other groups are unaffected"); err != nil {
		return err
	}
	read, err := decideTime(a, srv, readSpec, reps)
	if err != nil {
		return err
	}
	fmt.Printf("a pre-signed read against %d revocations: %v (mean of %d)\n", unrelated+1, read.Round(time.Microsecond), reps)
	return nil
}

// ---- E7: coalition dynamics ----

type rekeyRow struct{ groups, reissued int }

// checkRekey: a re-keying join re-issues exactly the certificates
// outstanding.
func checkRekey(rows []rekeyRow) error {
	for _, r := range rows {
		if r.reissued != r.groups {
			return fmt.Errorf("%d groups: join re-issued %d certificates", r.groups, r.reissued)
		}
	}
	return nil
}

func e7Rekey() error {
	const joins = 5
	fmt.Printf("E7 — a domain joins while a member is down: AA re-key plus re-issue of every outstanding certificate, mean of %d joins (§6)\n", joins)
	fmt.Println("groups   join       keygen     cut-over   re-issued")
	users := []string{"u1", "u2", "u3"}
	var rows []rekeyRow
	for _, groups := range []int{2, 8, 32} {
		a, err := jointadmin.NewAlliance(fmt.Sprintf("dyn%d", groups), []string{"D1", "D2", "D3"})
		if err != nil {
			return err
		}
		for i, u := range users {
			if err := a.EnrollUser(a.Domains()[i], u); err != nil {
				return err
			}
		}
		for g := 0; g < groups; g++ {
			if err := a.GrantThreshold(fmt.Sprintf("G%d", g), 2, users...); err != nil {
				return err
			}
		}
		// D4 joins and leaves again. D1 is down for every join, so the
		// members cannot deal D4 a share (E13) and the join re-keys among
		// four domains: its keygen (prepare), then its cut-over (commit:
		// revoke, install the key, re-issue).
		var keygen, cutover time.Duration
		for i := 0; i < joins; i++ {
			a.Coalition().AA().Domains()[0].SetDown(true)
			start := time.Now()
			r, err := a.PrepareJoin("D4")
			if err != nil {
				return err
			}
			prepared := time.Now()
			report, err := a.Commit(r)
			if err != nil {
				return err
			}
			keygen += prepared.Sub(start)
			cutover += time.Since(prepared)
			rows = append(rows, rekeyRow{groups: groups, reissued: report.CertsReissued})
			if _, err := a.Leave("D4"); err != nil {
				return err
			}
		}
		mean := func(d time.Duration) time.Duration { return (d / joins).Round(time.Millisecond / 10) }
		fmt.Printf("%6d   %-9v  %-9v  %-9v  %d\n", groups, mean(keygen+cutover), mean(keygen), mean(cutover),
			rows[len(rows)-1].reissued)
	}
	fmt.Println("shape: the keygen is one re-key whatever is outstanding (dealer keygen here;")
	fmt.Println("seconds to minutes distributed, E1) and runs before the cut-over; the cut-over")
	fmt.Println("grows with the certificates outstanding: a revoke and a joint signature each.")
	return checked(checkRekey(rows), "every re-keying join re-issues exactly the certificates outstanding")
}

// ---- E11: per-step cost through the metrics registry ----

// e11Observability: the authorization protocol's per-step cost profile,
// measured through an injected internal/obs registry — the same registry
// coalitiond exports over -metrics-addr. The experiment is self-checking:
// the counters must reconcile exactly with the driven workload.
func e11Observability() error {
	fmt.Println("E11 — per-step latency of the Section 4.3 protocol (injected obs registry)")
	a, srv, err := deployment()
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	srv.Authz().Instrument(reg)

	const approvals, denials = 40, 10
	write := func(signers ...string) error {
		spec := writeSpec
		spec.Signers = signers
		_, err := a.Submit(context.Background(), srv, spec)
		return err
	}
	for i := 0; i < approvals; i++ {
		a.Clock().Tick()
		if err := write("u1", "u2"); err != nil {
			return err
		}
	}
	for i := 0; i < denials; i++ {
		a.Clock().Tick()
		if err := write("u1"); err == nil {
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
	fmt.Println("the dominant cost is signature verification: step3 on every request, step1")
	fmt.Println("once per certificate (the signers' held identity certificates repeat and")
	fmt.Println("hit the verified-certificate cache).")
	return nil
}

// ---- E12: delegation and relationship scenarios ----

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
	// A mutation is "op group data", as policyctl's mutate takes it.
	mutate := func(d *daemon.Daemon, m string) error {
		f := strings.Fields(m)
		if r := d.Handle(ctx, daemon.Command{Cmd: "mutate", Op: f[0], Group: f[1], Data: f[2]}); !r.OK {
			return fmt.Errorf("mutate %s: %s", m, r.Detail)
		}
		return nil
	}
	fresh := func(mutations ...string) (*daemon.Daemon, error) {
		d, err := daemon.New(daemon.Config{
			Domains: []string{"D1", "D2", "D3"},
			Users:   []string{"alice", "bob", "carol", "dave"},
			Metrics: reg,
		})
		for _, m := range mutations {
			if err == nil {
				err = mutate(d, m)
			}
		}
		return d, err
	}
	// granted reports whether a delegated read by user (through group g)
	// is approved.
	granted := func(d *daemon.Daemon, g, user string) bool {
		return d.Handle(ctx, daemon.Command{Cmd: "read", Group: g, Delegated: true, Signers: []string{user}}).OK
	}
	checks := map[int]func() (bool, error){
		1: func() (bool, error) { // parent-folder inheritance
			d, err := fresh("delegate G_folder alice:0:read", "graph-link G_folder G_read:1")
			return err == nil && granted(d, "G_folder", "alice"), err
		},
		2: func() (bool, error) { // guardian traversal
			d, err := fresh("delegate G_read alice:1:read", "delegate G_read alice>bob:0:read")
			return err == nil && granted(d, "G_read", "bob"), err
		},
		3: func() (bool, error) { // exclusion blocking — must refuse
			d, err := fresh("delegate G_read alice:0:read", "revoke G_read alice")
			return err == nil && granted(d, "G_read", "alice"), err
		},
		4: func() (bool, error) { // wildcard access
			d, err := fresh("delegate G_read alice:0:*")
			return err == nil && granted(d, "G_read", "alice"), err
		},
		5: func() (bool, error) { // emergency context (break-glass window)
			d, err := fresh("delegate G_read alice:0:read")
			if err != nil {
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
			d, err := fresh("delegate G_read alice:1:read,write", "delegate G_read alice>bob:0:write",
				"delegate G_read carol:1:read,write", "delegate G_read carol>dave:0:read")
			if err != nil {
				return false, err
			}
			if granted(d, "G_read", "bob") {
				return false, fmt.Errorf("op dropped mid-chain still granted downstream")
			}
			return granted(d, "G_read", "dave"), nil
		},
		7: func() (bool, error) { // depth exhaustion — must refuse
			d, err := fresh("delegate G_read alice:0:read")
			if err != nil {
				return false, err
			}
			return mutate(d, "delegate G_read alice>bob:0:read") == nil, nil // refusal expected at install time
		},
		8: func() (bool, error) { // mid-chain revocation — must refuse
			d, err := fresh("delegate G_read alice:1:read", "delegate G_read alice>bob:0:read")
			if err != nil {
				return false, err
			}
			if !granted(d, "G_read", "bob") {
				return false, fmt.Errorf("chain refused before revocation")
			}
			if err := mutate(d, "revoke G_read alice"); err != nil {
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
