// Package lru is the one bounded least-recently-used map behind every
// cache of the serving tier: the service's result cache, the HTTP node's
// encoded-response cache, the portfolio winner routing table and the
// client's per-fingerprint cache.
package lru

import "container/list"

// Cache is a bounded least-recently-used map from K to V. It is not safe
// for concurrent use: the owner's lock guards it.
type Cache[K comparable, V any] struct {
	cap     int
	ll      *list.List          // front = most recently used; of *entry[K, V]
	items   map[K]*list.Element // of *entry[K, V]
	onEvict func(K, V)
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache holding at most capacity entries (at least one).
// onEvict, when non-nil, is called once with every entry dropped to make
// room for another; it must not call back into the cache.
func New[K comparable, V any](capacity int, onEvict func(K, V)) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{cap: capacity, ll: list.New(), items: make(map[K]*list.Element, capacity), onEvict: onEvict}
}

// Get returns the value stored under k, marking it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	e, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(e)
	return e.Value.(*entry[K, V]).val, true
}

// Add stores v under k as the most recently used entry. An existing key
// is replaced in place; a new key at capacity evicts the least recently
// used entry first.
func (c *Cache[K, V]) Add(k K, v V) {
	if e, ok := c.items[k]; ok {
		c.ll.MoveToFront(e)
		e.Value.(*entry[K, V]).val = v
		return
	}
	if c.ll.Len() >= c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		old := back.Value.(*entry[K, V])
		delete(c.items, old.key)
		if c.onEvict != nil {
			c.onEvict(old.key, old.val)
		}
	}
	c.items[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v})
}

// Len reports the number of entries.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }
