// Accessors tests use to observe the coordinator's pipeline tables.

package river

// EntryAddr returns the default pipeline's entry address (the first
// pipeline's when no default exists), or "" while it is unplaced.
func (c *Coordinator) EntryAddr() (addr string) {
	c.call(func() {
		if ps := c.k.defaultPipeline(); ps != nil {
			addr = ps.entryAddr
		}
	})
	return addr
}

// PipelineEntryAddr returns the named pipeline's entry address, or ""
// while it is unplaced or unknown.
func (c *Coordinator) PipelineEntryAddr(id string) (addr string) {
	c.call(func() {
		if ps := c.k.st.pipelines[id]; ps != nil {
			addr = ps.entryAddr
		}
	})
	return addr
}

// Pipelines returns the registered pipeline IDs in deterministic order.
func (c *Coordinator) Pipelines() (ids []string) {
	c.call(func() { ids = append([]string(nil), c.k.st.order...) })
	return ids
}
