package dist

// Collective operations built from point-to-point messages with binomial
// trees, mirroring how a classic MPI implementation structures them. Tags
// are drawn from a reserved high range so user tags below 1<<20 never
// collide.

const (
	_ = 1<<20 + iota // reserved, so the tags below keep their values
	tagBcast
	tagReduce
	tagGather
)

// Bcast distributes root's data to every rank and returns it. bytes is
// the payload size for the cost model; non-root ranks may pass nil data.
func (c *Comm) Bcast(root int, data interface{}, bytes int) interface{} {
	top := c.beginCollective("Bcast")
	out := c.bcastTree(root, tagBcast, data, bytes)
	c.endCollective(top)
	return out
}

// bcastTree implements a binomial broadcast. Ranks are renumbered so the
// root is virtual rank 0.
func (c *Comm) bcastTree(root, tag int, data interface{}, bytes int) interface{} {
	p := c.Size()
	vr := (c.rank - root + p) % p // virtual rank
	// Receive from the parent: in a binomial tree the parent of vr is vr
	// with its lowest set bit cleared.
	if vr == 0 {
		c.guardCollective("Bcast", data)
	} else {
		parent := vr &^ (vr & -vr)
		src := (parent + root) % p
		m := c.recvFull(src, tag)
		data = m.data
		bytes = m.bytes
		c.guardCollective("Bcast", data)
	}
	// Forward to children vr|2^k for 2^k below vr's lowest set bit,
	// largest subtree first so the broadcast completes in ⌈log₂P⌉ rounds
	// despite serialized sends.
	lsb := vr & -vr
	if vr == 0 {
		lsb = 1 << 30
	}
	top := 1
	for top < p {
		top <<= 1
	}
	for bit := top; bit >= 1; bit >>= 1 {
		if vr != 0 && bit >= lsb {
			continue
		}
		child := vr | bit
		if child == vr || child >= p {
			continue
		}
		dst := (child + root) % p
		c.Send(dst, tag, data, bytes)
	}
	return data
}

// ReduceFunc combines two payloads (the accumulator convention is
// combine(acc, incoming) → new acc).
type ReduceFunc func(a, b interface{}) interface{}

// Reduce combines payloads from all ranks at the root using a binomial
// tree; non-root ranks return nil.
func (c *Comm) Reduce(root int, data interface{}, bytes int, combine ReduceFunc) interface{} {
	top := c.beginCollective("Reduce")
	out := c.reduceTree(root, tagReduce, data, bytes, combine)
	c.endCollective(top)
	return out
}

func (c *Comm) reduceTree(root, tag int, data interface{}, bytes int, combine ReduceFunc) interface{} {
	p := c.Size()
	vr := (c.rank - root + p) % p
	acc := data
	c.guardCollective("Reduce", acc)
	// Receive from children (mirror of the broadcast tree).
	lsb := vr & -vr
	if vr == 0 {
		lsb = 1 << 30
	}
	// Children must be collected in descending bit order so the reduce
	// pairs mirror the broadcast exactly; ascending works too but keep it
	// deterministic.
	for bit := 1; bit < p; bit <<= 1 {
		if vr != 0 && bit >= lsb {
			break
		}
		child := vr | bit
		if child == vr || child >= p {
			continue
		}
		src := (child + root) % p
		in := c.Recv(src, tag)
		c.guardCollective("Reduce", in)
		if combine != nil {
			acc = combine(acc, in)
		}
	}
	if vr != 0 {
		parent := vr &^ (vr & -vr)
		dst := (parent + root) % p
		c.Send(dst, tag, acc, bytes)
		return nil
	}
	return acc
}

// Gather collects every rank's payload at the root in rank order;
// non-root ranks return nil.
func (c *Comm) Gather(root int, data interface{}, bytes int) []interface{} {
	top := c.beginCollective("Gather")
	defer c.endCollective(top)
	p := c.Size()
	if c.rank != root {
		c.Send(root, tagGather, data, bytes)
		return nil
	}
	out := make([]interface{}, p)
	out[root] = data
	for r := 0; r < p; r++ {
		if r == root {
			continue
		}
		out[r] = c.Recv(r, tagGather)
	}
	return out
}

// Allgather collects every rank's payload everywhere, in rank order.
func (c *Comm) Allgather(data interface{}, bytes int) []interface{} {
	top := c.beginCollective("Allgather")
	defer c.endCollective(top)
	parts := c.Gather(0, data, bytes)
	total := bytes * c.Size()
	res := c.Bcast(0, parts, total)
	return res.([]interface{})
}
