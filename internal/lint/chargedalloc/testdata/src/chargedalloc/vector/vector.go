// Package vector mirrors the pre-sized constructor surface the analyzer
// treats as a full-footprint allocation.
package vector

func NewSizedInts(n int) []int64 { return make([]int64, n) }

type Dict struct{ ids map[string]int64 }

func NewDict(capacity int) *Dict { return &Dict{ids: make(map[string]int64, capacity)} }
