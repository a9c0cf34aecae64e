// Fixtures for the chargedalloc analyzer: data-sized allocations in
// engine code must sit after a budget charge, lexically or via every
// caller.
package chargedalloc

import (
	"chargedalloc/memory"
	"chargedalloc/vector"
)

type ctx struct{}

func (c *ctx) charge(n int64) error    { return nil }
func (c *ctx) chargeRel(n int64) error { return nil }

func uncharged(n int) []int {
	return make([]int, n) // want "make with non-constant length"
}

func unchargedCap(n int) []int {
	return make([]int, 0, n) // want "make with non-constant length"
}

func unchargedMap(n int) map[int]int {
	return make(map[int]int, n) // want "make with non-constant length"
}

func unchargedCtor(n int) []int64 {
	return vector.NewSizedInts(n) // want "pre-sized constructor"
}

func unchargedDict(n int) *vector.Dict {
	return vector.NewDict(n) // want "pre-sized constructor"
}

func chargedDict(c *ctx, n int) *vector.Dict {
	if err := c.charge(int64(n) * 64); err != nil {
		return nil
	}
	return vector.NewDict(n)
}

// constDict presizes a fixed number of entries; never flagged.
func constDict() *vector.Dict {
	return vector.NewDict(1024)
}

func charged(c *ctx, n int) []int {
	if err := c.charge(int64(n) * 8); err != nil {
		return nil
	}
	return make([]int, n)
}

func chargedViaMemory(n int) []byte {
	if err := memory.Charge(int64(n)); err != nil {
		return nil
	}
	return make([]byte, n)
}

// constSized make is O(1) regardless of data; never flagged.
func constSized() []int {
	return make([]int, 64)
}

// channel capacity is a header, not a data buffer; never flagged.
func channel(n int) chan int {
	return make(chan int, n)
}

// umbrella charges once; coveredHelper allocates under that umbrella.
// Every call site of coveredHelper is past a charge, so its own make
// needs no local charge (the fixpoint rule).
func umbrella(c *ctx, n int) []int {
	if err := c.charge(int64(n) * 8); err != nil {
		return nil
	}
	return coveredHelper(n)
}

func coveredHelper(n int) []int {
	return make([]int, n)
}

// leakyHelper has one charged caller and one uncharged caller: not
// covered, so its allocation is flagged.
func chargedCaller(c *ctx, n int) []int {
	if err := c.chargeRel(int64(n)); err != nil {
		return nil
	}
	return leakyHelper(n)
}

func unchargedCaller(n int) []int {
	return leakyHelper(n)
}

func leakyHelper(n int) []int {
	return make([]int, n) // want "make with non-constant length"
}

func annotated(n int) []int {
	out := make([]int, n) //lint:allow chargedalloc O(parallelism) scratch, bounded by the worker pool not the data
	return out
}
