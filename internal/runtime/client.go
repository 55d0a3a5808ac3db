package runtime

import (
	"repro/internal/quorum"
	"repro/internal/sm"
	"repro/internal/transport"
	"repro/internal/types"
)

// ClientProc hosts an sm.ClientMachine on goroutines and a transport.
type ClientProc struct {
	id      types.ClientID
	params  quorum.Params
	machine sm.ClientMachine
	trans   transport.Transport
	host    *host
}

// NewClient creates a client process.
func NewClient(id types.ClientID, params quorum.Params, m sm.ClientMachine) *ClientProc {
	return &ClientProc{id: id, params: params, machine: m, host: newHost(1024)}
}

// Attach wires the transport (must precede Run).
func (c *ClientProc) Attach(t transport.Transport) { c.trans = t }

// DeliverReplica implements transport.Endpoint. It waits for room in the
// client's event queue, so it must not be called from the client's own
// loop (a completion hook): refill from there with client.Client.Submit.
func (c *ClientProc) DeliverReplica(from types.ReplicaID, m types.Message) {
	c.host.enqueue(event{from: sm.FromReplica(from), msg: m})
}

// DeliverClient implements transport.Endpoint (unused for clients).
func (c *ClientProc) DeliverClient(types.ClientID, types.Message) {}

// Run starts the client loop. The loop handles one event plus every event
// already queued behind it, then flushes the machine, so whatever those
// events put in flight leaves as one request per destination set.
func (c *ClientProc) Run() {
	h := c.host
	h.spawn(func() {
		c.machine.Start(&clientEnv{host: h, c: c})
		c.machine.Flush()
		for {
			select {
			case <-h.stopped:
				return
			case e := <-h.events:
				c.handle(e)
				for n := len(h.events); n > 0; n-- {
					c.handle(<-h.events)
				}
				c.machine.Flush()
			}
		}
	})
}

func (c *ClientProc) handle(e event) {
	if e.isTimer {
		c.machine.OnTimer(e.timer)
	} else {
		c.machine.OnMessage(e.from.Replica, e.msg)
	}
}

// Stop shuts the client down.
func (c *ClientProc) Stop() {
	c.host.halt()
	if c.trans != nil {
		c.trans.Close()
	}
}

type clientEnv struct {
	*host
	c *ClientProc
}

var _ sm.ClientEnv = (*clientEnv)(nil)

func (e *clientEnv) Client() types.ClientID { return e.c.id }
func (e *clientEnv) Params() quorum.Params  { return e.c.params }

func (e *clientEnv) Send(to types.ReplicaID, m types.Message) {
	if e.c.trans != nil {
		_ = e.c.trans.Send(to, m)
	}
}

func (e *clientEnv) Broadcast(m types.Message) {
	for i := 0; i < e.c.params.N; i++ {
		e.Send(types.ReplicaID(i), m)
	}
}

func (e *clientEnv) Logf(string, ...any) {}
