package main

import (
	"fmt"
	"math/rand"
	"time"

	"jointadmin/internal/clock"
	"jointadmin/internal/coalition"
	"jointadmin/internal/sharedrsa"
)

// ---- E13: membership change by share redistribution vs re-key ----

type membershipRow struct {
	keygen, event, path string
	time                time.Duration
	reissued, named     int // named: the certificates that named a departing user
	outstanding         int
	anchorsChanged      int // the AA key (the joining or leaving domain's own CA aside)
}

type shareBoundRow struct {
	keygen          string
	modulus, widest int
}

// checkMembership: a redistribution re-issues only what names a
// departing user (nothing for a join) and changes no anchor; a re-key
// re-issues every certificate and changes the AA key; a Boneh–Franklin
// redistribution costs less than its re-key; and after 200 changes no
// share exceeds |N| + 64 + 8 bits.
func checkMembership(rows []membershipRow, bounds []shareBoundRow) error {
	rekey := make(map[string]time.Duration)
	for _, r := range rows {
		if r.path == "re-key" {
			rekey[r.keygen+r.event] = r.time
		}
	}
	for _, r := range rows {
		want, anchors := r.named, 0
		if r.path == "re-key" {
			want, anchors = r.outstanding, 1
		}
		if r.reissued != want || r.anchorsChanged != anchors {
			return fmt.Errorf("%s %s by %s: re-issued %d, anchors changed %d; want %d, %d",
				r.keygen, r.event, r.path, r.reissued, r.anchorsChanged, want, anchors)
		}
		if r.path == "redistribute" && r.keygen == "boneh-franklin" && r.time >= rekey[r.keygen+r.event] {
			return fmt.Errorf("%s %s: redistribution %v is not cheaper than the re-key %v", r.keygen, r.event, r.time, rekey[r.keygen+r.event])
		}
	}
	for _, b := range bounds {
		if b.widest > b.modulus+64+8 {
			return fmt.Errorf("%s: a share reached %d bits after 200 changes, bound %d", b.keygen, b.widest, b.modulus+64+8)
		}
	}
	return nil
}

// e13Membership runs each join and leave both ways on one coalition per
// keygen — D4 joins, enrols u4 and is granted a certificate with u1,
// then leaves — first with every domain up (a redistribution), then with
// a member down for the join and D4 down for its leave (a re-key).
func e13Membership() error {
	const reps = 3
	fmt.Printf("E13 — a cooperative join or leave redistributes the AA's shares; an uncooperative one re-keys, mean of %d (§6)\n", reps)
	fmt.Println("keygen           event  path           time       re-issued  of  anchors changed")
	var rows []membershipRow
	var bounds []shareBoundRow
	for _, kg := range []struct {
		name string
		cfg  coalition.Config
	}{{"dealer", coalition.Config{KeyBits: 512}}, {"boneh-franklin", coalition.Config{KeyBits: 128, DistributedKeygen: true}}} {
		clk := clock.New(100)
		c, err := coalition.Form("e13", []string{"D1", "D2", "D3"}, kg.cfg, clk)
		if err != nil {
			return err
		}
		validity := clock.NewInterval(50, 1_000_000)
		users := []string{"u1", "u2", "u3"}
		for i, u := range users {
			if _, err := c.AddUser(c.Domains()[i], u, validity); err != nil {
				return err
			}
		}
		for g := 0; g < 4; g++ {
			if _, err := c.IssueThreshold(fmt.Sprintf("G%d", g), 2, users, validity); err != nil {
				return err
			}
		}
		cells := make(map[[2]string]*membershipRow)
		for rep := 0; rep < reps; rep++ {
			for _, path := range []string{"redistribute", "re-key"} {
				for _, event := range []string{"join", "leave"} {
					if path == "re-key" {
						down := "D1"
						if event == "leave" {
							down = "D4"
						}
						for _, d := range c.AA().Domains() {
							if d.Name == down {
								d.SetDown(true)
							}
						}
					}
					key := c.AA().Public().KeyID()
					outstanding := 0
					for _, g := range []string{"G0", "G1", "G2", "G3", "G_four"} {
						if _, ok := c.Certificate(g); ok {
							outstanding++
						}
					}
					named := 0
					start := time.Now()
					var report coalition.RekeyReport
					if event == "join" {
						report, err = c.Join("D4")
					} else {
						named = 1 // G_four names u4
						report, err = c.Leave("D4")
					}
					elapsed := time.Since(start)
					if err != nil {
						return fmt.Errorf("%s %s by %s: %w", kg.name, event, path, err)
					}
					if report.Redistributed != (path == "redistribute") {
						return fmt.Errorf("%s %s: redistributed=%v, want the %s path", kg.name, event, report.Redistributed, path)
					}
					r := cells[[2]string{path, event}]
					if r == nil {
						r = &membershipRow{keygen: kg.name, event: event, path: path, named: named}
						cells[[2]string{path, event}] = r
					}
					r.time += elapsed / reps
					r.reissued, r.outstanding = report.CertsReissued, outstanding
					r.anchorsChanged = 0
					if c.AA().Public().KeyID() != key {
						r.anchorsChanged = 1
					}
					if event == "join" {
						if _, err := c.AddUser("D4", "u4", validity); err != nil {
							return err
						}
						if _, err := c.IssueThreshold("G_four", 1, []string{"u1", "u4"}, validity); err != nil {
							return err
						}
					}
				}
			}
		}
		for _, path := range []string{"redistribute", "re-key"} {
			for _, event := range []string{"join", "leave"} {
				r := cells[[2]string{path, event}]
				fmt.Printf("%-15s  %-5s  %-13s  %-9v  %9d  %2d  %d\n", r.keygen, r.event, r.path,
					r.time.Round(10*time.Microsecond), r.reissued, r.outstanding, r.anchorsChanged)
				rows = append(rows, *r)
			}
		}
		b, err := shareBound(kg.name, c)
		if err != nil {
			return err
		}
		bounds = append(bounds, b)
	}
	for _, b := range bounds {
		fmt.Printf("%s: largest share after 200 changes %d bits, |N| = %d (bound |N| + 64 + 8)\n", b.keygen, b.widest, b.modulus)
	}
	fmt.Println("shape: a cooperative join re-issues nothing and a cooperative leave only what")
	fmt.Println("named the departed domain's users, under the unchanged key; a re-key re-issues")
	fmt.Println("everything under a new one, and with Boneh–Franklin costs E1's keygen. Shares")
	fmt.Println("stay a few bits above |N| + 64 however many changes run.")
	return checked(checkMembership(rows, bounds),
		"redistribution re-issues only what names a departed user and keeps the AA key; a re-key re-issues all; shares stay bounded")
}

// shareBound redistributes c's AA shares 200 times — joins and leaves
// alternating between three and four parties, from a seeded source —
// and reports the widest share seen.
func shareBound(name string, c *coalition.Coalition) (shareBoundRow, error) {
	pk := c.AA().Public()
	var shares []sharedrsa.Share
	for _, d := range c.AA().Domains() {
		shares = append(shares, d.Share())
	}
	rng := rand.New(rand.NewSource(13))
	row := shareBoundRow{keygen: name, modulus: pk.N.BitLen()}
	for i := 0; i < 200; i++ {
		var leaving []bool
		joining := 1
		if len(shares) > 3 {
			leaving, joining = make([]bool, len(shares)), 0
			leaving[rng.Intn(len(shares))] = true
		}
		var err error
		if shares, err = sharedrsa.Redistribute(pk, shares, leaving, joining, rng); err != nil {
			return row, err
		}
		for _, s := range shares {
			row.widest = max(row.widest, s.D.BitLen())
		}
	}
	return row, nil
}
