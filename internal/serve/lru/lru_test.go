package lru

import (
	"slices"
	"testing"
)

// op is one step of a table case: a Get (want, hit) or an Add (val).
type op struct {
	add  bool
	key  int
	val  string
	want string // Get only
	hit  bool   // Get only
}

func get(k int, want string, hit bool) op { return op{key: k, want: want, hit: hit} }
func add(k int, v string) op              { return op{add: true, key: k, val: v} }

func TestCache(t *testing.T) {
	cases := []struct {
		name    string
		cap     int
		ops     []op
		len     int
		evicted []int // keys passed to the callback, in order
	}{
		{
			name: "bound below capacity evicts nothing",
			cap:  3,
			ops:  []op{add(1, "a"), add(2, "b"), add(3, "c"), get(1, "a", true), get(2, "b", true), get(3, "c", true)},
			len:  3,
		},
		{
			name:    "capacity evicts the least recently added",
			cap:     2,
			ops:     []op{add(1, "a"), add(2, "b"), add(3, "c"), get(1, "", false), get(2, "b", true), get(3, "c", true)},
			len:     2,
			evicted: []int{1},
		},
		{
			name:    "Get refreshes recency",
			cap:     3,
			ops:     []op{add(1, "a"), add(2, "b"), add(3, "c"), get(1, "a", true), add(4, "d"), get(2, "", false), get(1, "a", true), get(3, "c", true), get(4, "d", true)},
			len:     3,
			evicted: []int{2},
		},
		{
			name:    "Add of an existing key replaces in place and refreshes recency",
			cap:     2,
			ops:     []op{add(1, "a"), add(2, "b"), add(1, "a2"), get(1, "a2", true), add(3, "c"), get(2, "", false), get(1, "a2", true)},
			len:     2,
			evicted: []int{2},
		},
		{
			name:    "one callback per evicted key",
			cap:     2,
			ops:     []op{add(1, "a"), add(2, "b"), add(3, "c"), add(4, "d"), add(4, "d2"), add(5, "e")},
			len:     2,
			evicted: []int{1, 2, 3},
		},
		{
			name:    "capacity below one is clamped to one",
			cap:     0,
			ops:     []op{add(1, "a"), add(2, "b"), get(2, "b", true), get(1, "", false)},
			len:     1,
			evicted: []int{1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var evicted []int
			c := New(tc.cap, func(k int, v string) {
				if v == "" {
					t.Errorf("callback for key %d got no value", k)
				}
				evicted = append(evicted, k)
			})
			for i, o := range tc.ops {
				if o.add {
					c.Add(o.key, o.val)
					continue
				}
				if got, ok := c.Get(o.key); ok != o.hit || got != o.want {
					t.Fatalf("op %d: Get(%d) = %q, %v; want %q, %v", i, o.key, got, ok, o.want, o.hit)
				}
			}
			if c.Len() != tc.len {
				t.Errorf("Len = %d, want %d", c.Len(), tc.len)
			}
			if !slices.Equal(evicted, tc.evicted) {
				t.Errorf("evicted %v, want %v", evicted, tc.evicted)
			}
		})
	}
}
