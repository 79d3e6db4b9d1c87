package rs

// Cache memoises codecs by shape, so the Vandermonde build and k×k
// inversion behind NewCodec run once per (k, m) rather than once per batch.
// It holds at most a fixed number of shapes and evicts the oldest: on the
// decoders the shape comes off the wire (32 640 legal pairs, each up to
// 16 kB of matrix), so a flood of forged shapes must not grow it. Not safe
// for concurrent use; each engine owns one, and with it the working memory
// of the engine's decodes (ReconstructData).
type Cache struct {
	max    int
	codecs map[[2]int]*Codec
	// order is a ring of the cached shapes, oldest at next once full.
	order [][2]int
	next  int
	// scratch is reshaped for each decode; at k = 255 it is about 260 kB.
	scratch decodeScratch
}

// DecoderShapes bounds the cache of an engine that decodes what the wire
// names: room for every shape the default encoder emits (K=6 cross-stream,
// InBlock=5 in-stream), a quarter of a megabyte at worst under forgery.
const DecoderShapes = 16

// NewCache returns a cache bounded at max shapes (at least one).
func NewCache(max int) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{max: max, codecs: make(map[[2]int]*Codec)}
}

// Get returns the codec for k data and m parity shards, building it on
// first use, or nil when no such code exists.
func (c *Cache) Get(k, m int) *Codec {
	key := [2]int{k, m}
	if codec, ok := c.codecs[key]; ok {
		return codec
	}
	codec, err := NewCodec(k, m)
	if err != nil {
		return nil
	}
	if len(c.order) < c.max {
		c.order = append(c.order, key)
	} else {
		delete(c.codecs, c.order[c.next])
		c.order[c.next] = key
		c.next = (c.next + 1) % c.max
	}
	c.codecs[key] = codec
	return codec
}

// ReconstructData is Codec.ReconstructData on the (k, m) codec, working in
// the cache's scratch: once it has decoded a batch of k sources, another
// allocates only the data shards it fills in. A shape with no code is
// ErrInvalidParams.
func (c *Cache) ReconstructData(k, m int, shards [][]byte) error {
	codec := c.Get(k, m)
	if codec == nil {
		return ErrInvalidParams
	}
	return codec.reconstruct(shards, &c.scratch)
}

// Len returns how many shapes are cached.
func (c *Cache) Len() int { return len(c.codecs) }
