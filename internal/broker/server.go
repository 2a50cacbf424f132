package broker

import (
	"fmt"

	"cellbricks/internal/billing"
	"cellbricks/internal/obs"
	"cellbricks/internal/sap"
	"cellbricks/internal/wire"
)

// Server exposes a Brokerd over the wire protocol (the real-socket
// deployment: brokerd runs in the cloud, AGWs and UEs reach it over TCP).
type Server struct {
	B   *Brokerd
	srv *wire.Server

	tr  *obs.Tracer
	ids *obs.SpanIDSource
}

// Serve starts the broker's wire server on addr.
func Serve(b *Brokerd, addr string) (*Server, error) {
	return ServeTraced(b, addr, nil, nil)
}

// ServeTraced starts the broker's wire server with causal tracing: requests
// whose frame header carries a span context get a broker-side child span.
// tr/ids may be nil, in which case this is identical to Serve.
func ServeTraced(b *Brokerd, addr string, tr *obs.Tracer, ids *obs.SpanIDSource) (*Server, error) {
	s := &Server{B: b, tr: tr, ids: ids}
	srv, err := wire.NewServerCtx(addr, s.handle)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

// span records a broker-side span for a traced request, bracketing f.
func (s *Server) span(sc obs.SpanContext, name string, f func() error) error {
	if !sc.Valid() || s.tr == nil || s.ids == nil {
		return f()
	}
	start := s.tr.Now()
	err := f()
	args := map[string]string(nil)
	if err != nil {
		args = map[string]string{"error": err.Error()}
	}
	s.tr.SpanCtx(sc.Child(s.ids.Next()), "broker", name, start, s.tr.Now()-start, args)
	return err
}

func (s *Server) handle(sc obs.SpanContext, msgType byte, payload []byte) (byte, []byte, error) {
	switch msgType {
	case wire.TypeSAPAuthRequest:
		req, err := sap.UnmarshalAuthReqT(payload)
		if err != nil {
			return 0, nil, err
		}
		var resp *sap.AuthResp
		if err := s.span(sc, "handle-auth", func() error {
			var e error
			resp, e = s.B.HandleAuthRequest(req)
			return e
		}); err != nil {
			return 0, nil, err
		}
		return wire.TypeSAPAuthResponse, resp.Marshal(), nil
	case wire.TypeSAPResumeRequest:
		req, err := sap.UnmarshalResumeReq(payload)
		if err != nil {
			return 0, nil, err
		}
		var resp *sap.ResumeResp
		if err := s.span(sc, "handle-resume", func() error {
			var e error
			resp, e = s.B.HandleResume(req)
			return e
		}); err != nil {
			return 0, nil, err
		}
		return wire.TypeSAPResumeResponse, resp.Marshal(), nil
	case wire.TypeReportUpload:
		env, err := billing.UnmarshalSealedReport(payload)
		if err != nil {
			return 0, nil, err
		}
		if err := s.span(sc, "ingest-report", func() error {
			_, e := s.B.HandleReport(env)
			return e
		}); err != nil {
			return 0, nil, err
		}
		return wire.TypeReportAck, nil, nil
	default:
		return 0, nil, fmt.Errorf("broker: unexpected message type %d", msgType)
	}
}

// Client is a wire-protocol client implementing epc.BrokerClient plus
// report upload; used by AGWs and (for UE reports) by the UE's data path.
type Client struct{ C *wire.Client }

// DialClient connects to a brokerd server.
func DialClient(addr string) (*Client, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Client{C: c}, nil
}

// Authenticate implements the SAP round trip.
func (c *Client) Authenticate(req *sap.AuthReqT) (*sap.AuthResp, error) {
	return c.AuthenticateCtx(obs.SpanContext{}, req)
}

// AuthenticateCtx is Authenticate with a span context propagated in the
// frame header (implements epc.BrokerClientCtx).
func (c *Client) AuthenticateCtx(sc obs.SpanContext, req *sap.AuthReqT) (*sap.AuthResp, error) {
	_, reply, err := c.C.CallCtx(wire.TypeSAPAuthRequest, sc, req.Marshal())
	if err != nil {
		return nil, err
	}
	return sap.UnmarshalAuthResp(reply)
}

// Resume implements the SAP fast-path round trip (epc.BrokerClient).
func (c *Client) Resume(req *sap.ResumeReq) (*sap.ResumeResp, error) {
	return c.ResumeCtx(obs.SpanContext{}, req)
}

// ResumeCtx is Resume with a span context propagated in the frame header
// (implements epc.BrokerResumeCtx).
func (c *Client) ResumeCtx(sc obs.SpanContext, req *sap.ResumeReq) (*sap.ResumeResp, error) {
	_, reply, err := c.C.CallCtx(wire.TypeSAPResumeRequest, sc, req.Marshal())
	if err != nil {
		return nil, err
	}
	return sap.UnmarshalResumeResp(reply)
}

// UploadReport delivers one sealed traffic report.
func (c *Client) UploadReport(env *billing.SealedReport) error {
	return c.UploadReportCtx(obs.SpanContext{}, env)
}

// UploadReportCtx is UploadReport with a span context in the frame header.
func (c *Client) UploadReportCtx(sc obs.SpanContext, env *billing.SealedReport) error {
	_, _, err := c.C.CallCtx(wire.TypeReportUpload, sc, env.Marshal())
	return err
}

// Close closes the connection.
func (c *Client) Close() error { return c.C.Close() }
