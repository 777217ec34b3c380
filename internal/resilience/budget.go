package resilience

import (
	"math"
	"sync"
	"sync/atomic"
)

// BudgetConfig tunes a RetryBudget.
type BudgetConfig struct {
	// Tokens is the bucket capacity: the number of retries available from
	// a full bucket. Default 10.
	Tokens float64
	// Ratio is the fraction of one token returned per recorded success.
	// Default 0.1 (ten successes buy back one retry).
	Ratio float64
}

// RetryBudget is a token bucket shared by every caller retrying against one
// dependency. Each retry withdraws a whole token; each success deposits
// Ratio of a token (never above capacity). When the bucket is empty,
// retries are denied until successes replenish it — so during a total
// outage the aggregate retry traffic is capped at the bucket capacity no
// matter how many readers are blocked on the dependency.
//
// The balance is kept in whole milli-tokens, so ten deposits at ratio 0.1
// add up to exactly one token; a float balance would fall short by one ulp
// and refuse the retry they bought.
type RetryBudget struct {
	mu       sync.Mutex
	milli    int64 // balance
	capacity int64 // milli-tokens
	ratio    int64 // milli-tokens per deposit, at least 1

	spent  atomic.Int64
	denied atomic.Int64
}

// NewRetryBudget builds a full bucket. Non-positive capacity defaults to
// 10; a ratio outside (0, 1] defaults to 0.1.
func NewRetryBudget(capacity, ratio float64) *RetryBudget {
	if capacity <= 0 {
		capacity = 10
	}
	if ratio <= 0 || ratio > 1 {
		ratio = 0.1
	}
	c := int64(math.Round(capacity * milliToken))
	return &RetryBudget{milli: c, capacity: c, ratio: max(int64(math.Round(ratio*milliToken)), 1)}
}

// milliToken is one token in the balance's unit.
const milliToken = 1000

// Withdraw takes one token for a retry. It reports false — and counts a
// denial — when less than a whole token remains.
func (b *RetryBudget) Withdraw() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	ok := b.milli >= milliToken
	if ok {
		b.milli -= milliToken
	}
	b.mu.Unlock()
	if ok {
		b.spent.Add(1)
	} else {
		b.denied.Add(1)
	}
	return ok
}

// Deposit credits one success, restoring Ratio of a token up to capacity.
func (b *RetryBudget) Deposit() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.milli = min(b.milli+b.ratio, b.capacity)
	b.mu.Unlock()
}

// Tokens returns the current balance.
func (b *RetryBudget) Tokens() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return float64(b.milli) / milliToken
}

// Spent counts granted withdrawals (retries actually attempted).
func (b *RetryBudget) Spent() int64 {
	if b == nil {
		return 0
	}
	return b.spent.Load()
}

// Denied counts refused withdrawals (retries abandoned as budget-exhausted).
func (b *RetryBudget) Denied() int64 {
	if b == nil {
		return 0
	}
	return b.denied.Load()
}
