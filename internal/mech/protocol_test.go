package mech

import "testing"

func TestEvenBoundsAndAssigner(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{10, 3}, {100, 7}, {21, 21}, {5, 1}} {
		bounds := EvenBounds(tc.n, tc.m)
		as, err := NewAssigner(1, bounds)
		if err != nil {
			t.Fatalf("n=%d m=%d: %v", tc.n, tc.m, err)
		}
		if as.N() != tc.n || as.NumGroups() != tc.m {
			t.Fatalf("n=%d m=%d: got (%d,%d)", tc.n, tc.m, as.N(), as.NumGroups())
		}
		counts := make([]int, tc.m)
		for u := 0; u < tc.n; u++ {
			g, err := as.GroupOf(u)
			if err != nil {
				t.Fatal(err)
			}
			counts[g]++
		}
		for g, got := range counts {
			if got != as.GroupSize(g) {
				t.Errorf("group %d: %d users, GroupSize says %d", g, got, as.GroupSize(g))
			}
			if got < tc.n/tc.m || got > tc.n/tc.m+1 {
				t.Errorf("group %d size %d not near-even", g, got)
			}
		}
	}
}

func TestAssignerDeterministicInSeed(t *testing.T) {
	bounds := EvenBounds(500, 6)
	a1, _ := NewAssigner(42, bounds)
	a2, _ := NewAssigner(42, bounds)
	a3, _ := NewAssigner(43, bounds)
	same := true
	for u := 0; u < 500; u++ {
		g1, _ := a1.GroupOf(u)
		g2, _ := a2.GroupOf(u)
		g3, _ := a3.GroupOf(u)
		if g1 != g2 {
			t.Fatal("same seed produced different assignments")
		}
		if g1 != g3 {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical assignments")
	}
}

func TestAssignerErrors(t *testing.T) {
	if _, err := NewAssigner(1, EvenBounds(5, 10)); err == nil {
		t.Error("n < m should fail")
	}
	if _, err := NewAssigner(1, []int{0}); err == nil {
		t.Error("zero groups should fail")
	}
	as, _ := NewAssigner(1, EvenBounds(10, 2))
	if _, err := as.GroupOf(-1); err == nil {
		t.Error("negative user should fail")
	}
	if _, err := as.GroupOf(10); err == nil {
		t.Error("out-of-range user should fail")
	}
}

func TestClientRandIndependentAcrossUsers(t *testing.T) {
	p := Params{Seed: 7}
	r0 := ClientRand(p, 0)
	r0b := ClientRand(p, 0)
	r1 := ClientRand(p, 1)
	a, b, c := r0.Uint64(), r0b.Uint64(), r1.Uint64()
	if a != b {
		t.Error("same (seed, user) must reproduce the same stream")
	}
	if a == c {
		t.Error("different users should get different streams")
	}
	if d := ClientRand(Params{Seed: 8}, 0).Uint64(); d == a {
		t.Error("different seeds should get different streams")
	}
}

func TestParamsValidate(t *testing.T) {
	good := Params{N: 10, D: 3, C: 16, Eps: 1}
	if err := good.Validate(2); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{N: 0, D: 3, C: 16, Eps: 1},
		{N: 10, D: 1, C: 16, Eps: 1},
		{N: 10, D: 3, C: 1, Eps: 1},
		{N: 10, D: 3, C: 16, Eps: 0},
		{N: 10, D: 3, C: 16, Eps: -2},
	}
	for i, p := range bad {
		if err := p.Validate(2); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestCheckRecord(t *testing.T) {
	p := Params{N: 10, D: 2, C: 4, Eps: 1}
	if err := CheckRecord(p, []int{0, 3}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range [][]int{{1}, {1, 2, 3}, {-1, 0}, {0, 4}} {
		if err := CheckRecord(p, rec); err == nil {
			t.Errorf("record %v accepted", rec)
		}
	}
}
