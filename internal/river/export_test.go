// Accessors tests use to observe the coordinator's pipeline tables.

package river

// PipelineEntryAddr returns the named pipeline's entry address, or ""
// while it is unplaced or unknown.
func (c *Coordinator) PipelineEntryAddr(id string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ps := c.st.pipelines[id]; ps != nil {
		return ps.entryAddr
	}
	return ""
}

// Pipelines returns the registered pipeline IDs in deterministic order.
func (c *Coordinator) Pipelines() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.st.order...)
}
