package resilience

import (
	"math/rand"
	"sync"
	"testing"
)

func TestBudgetExhaustThenReplenish(t *testing.T) {
	b := NewRetryBudget(3, 0.5)
	for i := 0; i < 3; i++ {
		if !b.Withdraw() {
			t.Fatalf("withdraw %d denied with tokens remaining", i)
		}
	}
	if b.Withdraw() {
		t.Fatal("withdraw granted from empty bucket")
	}
	if got := b.Denied(); got != 1 {
		t.Fatalf("denied = %d, want 1", got)
	}
	// Two successes at ratio 0.5 buy back one retry.
	b.Deposit()
	if b.Withdraw() {
		t.Fatal("withdraw granted with only half a token")
	}
	b.Deposit()
	if !b.Withdraw() {
		t.Fatal("withdraw denied after replenish")
	}
	if got := b.Spent(); got != 4 {
		t.Fatalf("spent = %d, want 4", got)
	}
}

// TestBudgetTenthsAddUpExactly: at the default ratio 0.1, ten successes buy
// back exactly one retry — not eleven, as a float balance short by one ulp
// would need.
func TestBudgetTenthsAddUpExactly(t *testing.T) {
	b := NewRetryBudget(1, 0.1)
	if !b.Withdraw() {
		t.Fatal("full bucket denied")
	}
	for i := 0; i < 10; i++ {
		b.Deposit()
	}
	if got := b.Tokens(); got != 1 {
		t.Fatalf("tokens after ten deposits at 0.1 = %v, want exactly 1", got)
	}
	if !b.Withdraw() {
		t.Fatal("ten deposits at ratio 0.1 did not buy back one retry")
	}
}

func TestBudgetCapacityCap(t *testing.T) {
	b := NewRetryBudget(2, 1)
	for i := 0; i < 10; i++ {
		b.Deposit()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("tokens after over-deposit = %v, want capacity 2", got)
	}
}

func TestBudgetNilSafe(t *testing.T) {
	var b *RetryBudget
	if !b.Withdraw() {
		t.Fatal("nil budget must grant every withdrawal")
	}
	b.Deposit()
	if b.Spent() != 0 || b.Denied() != 0 || b.Tokens() != 0 {
		t.Fatal("nil budget counters must be zero")
	}
}

// TestBudgetStressRace drives a shared budget from many goroutines with a
// fixed-seed deposit/withdraw mix. Run under -race; checks the invariant
// spent <= capacity + deposits (every granted retry was funded).
func TestBudgetStressRace(t *testing.T) {
	const capacity = 16
	const ratio = 0.25
	b := NewRetryBudget(capacity, ratio)
	const workers = 8
	const opsPerWorker = 2000
	var deposits sync.Map
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			n := 0
			for i := 0; i < opsPerWorker; i++ {
				if rng.Intn(2) == 0 {
					b.Deposit()
					n++
				} else {
					b.Withdraw()
				}
			}
			deposits.Store(seed, n)
		}(int64(w) + 7)
	}
	wg.Wait()
	total := 0
	deposits.Range(func(_, v any) bool {
		total += v.(int)
		return true
	})
	maxFunded := int64(capacity + float64(total)*ratio + 1)
	if got := b.Spent(); got > maxFunded {
		t.Fatalf("spent %d retries but only %d were funded", got, maxFunded)
	}
	if b.Tokens() < 0 {
		t.Fatalf("negative balance %v", b.Tokens())
	}
}

func TestParseBudget(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want *BudgetConfig
		err  bool
	}{
		{in: "", want: nil},
		{in: "0", want: nil},
		{in: "10", want: &BudgetConfig{Tokens: 10}},
		{in: "10,0.2", want: &BudgetConfig{Tokens: 10, Ratio: 0.2}},
		{in: "0.5", err: true},
		{in: "10,2", err: true},
		{in: "10,0", err: true}, // a zero ratio would silently run the 0.1 default
		{in: "10,0.2,3", err: true},
		{in: "x", err: true},
	} {
		got, err := ParseBudget(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseBudget(%q): want error, got %+v", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseBudget(%q): %v", tc.in, err)
			continue
		}
		switch {
		case tc.want == nil:
			if got != nil {
				t.Errorf("ParseBudget(%q) = %+v, want nil", tc.in, got)
			}
		case got == nil || *got != *tc.want:
			t.Errorf("ParseBudget(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}
