package core

import "drsnet/internal/routing/wire"

// The DRS control codecs live in drsnet/internal/routing/wire together
// with every other on-the-wire format; the aliases below keep this
// package's internals reading naturally.

// DRS control message types (carried in wire.ProtoControl frames).
const (
	msgRouteQuery = wire.MsgRouteQuery
	msgRouteOffer = wire.MsgRouteOffer
	msgHello      = wire.MsgHello
	msgGoodbye    = wire.MsgGoodbye
	msgRejoin     = wire.MsgRejoin
	msgHelloInc   = wire.MsgHelloInc
	msgOfferInc   = wire.MsgOfferInc
)

// routeQuery is the broadcast the DRS makes when no direct link to a
// peer remains; routeOffer answers it (see wire.Query / wire.Offer).
type (
	routeQuery = wire.Query
	routeOffer = wire.Offer
)

var (
	marshalHello   = wire.MarshalHello
	marshalGoodbye = wire.MarshalGoodbye
	marshalQuery   = wire.MarshalQuery
	unmarshalQuery = wire.UnmarshalQuery
	marshalOffer   = wire.MarshalOffer
	unmarshalOffer = wire.UnmarshalOffer
	// Crash–restart lifecycle codecs (emission of the rejoin and the
	// stamped hello lives in the membership package).
	unmarshalRejoin   = wire.UnmarshalRejoin
	unmarshalHelloInc = wire.UnmarshalHelloInc
	marshalOfferInc   = wire.MarshalOfferInc
	unmarshalOfferInc = wire.UnmarshalOfferInc
)
