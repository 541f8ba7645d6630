package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flashswl/internal/blockdev"
	"flashswl/internal/core"
	"flashswl/internal/dftl"
	"flashswl/internal/ftl"
	"flashswl/internal/mtd"
	"flashswl/internal/nand"
	"flashswl/internal/nftl"
	"flashswl/internal/obs"
	"flashswl/internal/serve"
	"flashswl/internal/serve/cache"
)

// newTestServer starts the real mux over a small served stack and
// returns the httptest server plus the serve handle for shutdown.
func newTestServer(t *testing.T, layer string, cachePages int) (*httptest.Server, *serve.Server) {
	t.Helper()
	const pageSize = 1024
	var wcache *cache.Cache
	srv, err := serve.New(serve.Config{
		Build: func() (*serve.Stack, error) {
			chip := nand.New(nand.Config{
				Geometry:  nand.Geometry{Blocks: 32, PagesPerBlock: 8, PageSize: pageSize, SpareSize: 32},
				StoreData: true,
			})
			dev := mtd.New(chip)
			var store blockdev.PageStore
			var err error
			switch layer {
			case "ftl":
				store, err = ftl.New(dev, ftl.Config{LogicalPages: 160})
			case "nftl":
				store, err = nftl.New(dev, nftl.Config{VirtualBlocks: 20})
			case "dftl":
				store, err = dftl.New(dev, dftl.Config{LogicalPages: 160})
			default:
				err = fmt.Errorf("unknown layer %q", layer)
			}
			if err != nil {
				return nil, err
			}
			bdev, err := blockdev.New(store, pageSize)
			if err != nil {
				return nil, err
			}
			st := &serve.Stack{Front: bdev}
			if cachePages > 0 {
				c, err := cache.New(bdev, cache.Config{PageSize: pageSize, Pages: cachePages, Assoc: 4})
				if err != nil {
					return nil, err
				}
				wcache = c
				st.Front = c
				st.Flush = c.Flush
			}
			return st, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(newMux(srv, wcache, nil))
	t.Cleanup(func() {
		hs.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return hs, srv
}

func do(t *testing.T, req *http.Request) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestHTTPProtocol walks the worked session from docs/serving.md: ranged
// PUT, ranged GET, whole-device GET, flush, and stats, for every layer.
func TestHTTPProtocol(t *testing.T) {
	for _, layer := range []string{"ftl", "nftl", "dftl"} {
		t.Run(layer, func(t *testing.T) {
			hs, srv := newTestServer(t, layer, 16)
			payload := bytes.Repeat([]byte{0xAB}, 4*blockdev.SectorSize)

			// PUT four sectors at byte offset 2048 via Content-Range.
			req, _ := http.NewRequest(http.MethodPut, hs.URL+"/dev", bytes.NewReader(payload))
			req.Header.Set("Content-Range", fmt.Sprintf("bytes 2048-%d/*", 2048+len(payload)-1))
			resp, body := do(t, req)
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("PUT = %d %s", resp.StatusCode, body)
			}

			// Ranged GET reads one of those sectors back.
			req, _ = http.NewRequest(http.MethodGet, hs.URL+"/dev", nil)
			req.Header.Set("Range", "bytes=2560-3071")
			resp, body = do(t, req)
			if resp.StatusCode != http.StatusPartialContent {
				t.Fatalf("ranged GET = %d %s", resp.StatusCode, body)
			}
			if cr := resp.Header.Get("Content-Range"); !strings.HasPrefix(cr, "bytes 2560-3071/") {
				t.Errorf("Content-Range = %q", cr)
			}
			if !bytes.Equal(body, payload[:blockdev.SectorSize]) {
				t.Error("ranged GET returned wrong bytes")
			}

			// Whole-device GET: 200, full size, the PUT visible in place.
			req, _ = http.NewRequest(http.MethodGet, hs.URL+"/dev", nil)
			resp, body = do(t, req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET = %d", resp.StatusCode)
			}
			if int64(len(body)) != srv.Sectors()*blockdev.SectorSize {
				t.Fatalf("GET returned %d bytes, want %d", len(body), srv.Sectors()*blockdev.SectorSize)
			}
			if !bytes.Equal(body[2048:2048+len(payload)], payload) {
				t.Error("PUT not visible in whole-device GET")
			}
			if body[0] != 0xFF {
				t.Errorf("unwritten sector reads %#x, want 0xFF filler", body[0])
			}

			// HEAD reports size without a body.
			req, _ = http.NewRequest(http.MethodHead, hs.URL+"/dev", nil)
			resp, body = do(t, req)
			if resp.StatusCode != http.StatusOK || len(body) != 0 {
				t.Errorf("HEAD = %d with %d body bytes", resp.StatusCode, len(body))
			}

			// POST /flush, then /stats reflects the traffic.
			resp, body = do(t, must(http.NewRequest(http.MethodPost, hs.URL+"/flush", nil)))
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("flush = %d %s", resp.StatusCode, body)
			}
			resp, body = do(t, must(http.NewRequest(http.MethodGet, hs.URL+"/stats", nil)))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("stats = %d", resp.StatusCode)
			}
			var reply statsReply
			if err := json.Unmarshal(body, &reply); err != nil {
				t.Fatalf("stats JSON: %v\n%s", err, body)
			}
			if reply.Sectors != srv.Sectors() || reply.Serve.Requests == 0 {
				t.Errorf("stats = %+v", reply)
			}
			if reply.Cache == nil || reply.Cache.Writebacks == 0 {
				t.Errorf("stats cache = %+v, want flushed writebacks", reply.Cache)
			}
		})
	}
}

func must(req *http.Request, err error) *http.Request {
	if err != nil {
		panic(err)
	}
	return req
}

// TestHTTPErrors pins the protocol's failure statuses.
func TestHTTPErrors(t *testing.T) {
	hs, srv := newTestServer(t, "ftl", 0)
	size := srv.Sectors() * blockdev.SectorSize
	cases := []struct {
		name string
		req  func() *http.Request
		want int
	}{
		{"unaligned range", func() *http.Request {
			r := must(http.NewRequest(http.MethodGet, hs.URL+"/dev", nil))
			r.Header.Set("Range", "bytes=100-611")
			return r
		}, http.StatusRequestedRangeNotSatisfiable},
		{"range past end", func() *http.Request {
			r := must(http.NewRequest(http.MethodGet, hs.URL+"/dev", nil))
			r.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", size, size+blockdev.SectorSize-1))
			return r
		}, http.StatusRequestedRangeNotSatisfiable},
		{"range whose length overflows", func() *http.Request {
			r := must(http.NewRequest(http.MethodGet, hs.URL+"/dev", nil))
			r.Header.Set("Range", "bytes=0-9223372036854775807")
			return r
		}, http.StatusRequestedRangeNotSatisfiable},
		{"range whose end overflows", func() *http.Request {
			r := must(http.NewRequest(http.MethodGet, hs.URL+"/dev", nil))
			r.Header.Set("Range", "bytes=512-9223372036854775807")
			return r
		}, http.StatusRequestedRangeNotSatisfiable},
		{"terabyte range", func() *http.Request {
			r := must(http.NewRequest(http.MethodGet, hs.URL+"/dev", nil))
			r.Header.Set("Range", "bytes=0-1099511627775")
			return r
		}, http.StatusRequestedRangeNotSatisfiable},
		{"terabyte range, HEAD", func() *http.Request {
			r := must(http.NewRequest(http.MethodHead, hs.URL+"/dev", nil))
			r.Header.Set("Range", "bytes=0-1099511627775")
			return r
		}, http.StatusRequestedRangeNotSatisfiable},
		{"malformed range", func() *http.Request {
			r := must(http.NewRequest(http.MethodGet, hs.URL+"/dev", nil))
			r.Header.Set("Range", "bytes=oops")
			return r
		}, http.StatusBadRequest},
		{"multi range", func() *http.Request {
			r := must(http.NewRequest(http.MethodGet, hs.URL+"/dev", nil))
			r.Header.Set("Range", "bytes=0-511,1024-1535")
			return r
		}, http.StatusBadRequest},
		{"unaligned body", func() *http.Request {
			return must(http.NewRequest(http.MethodPut, hs.URL+"/dev", strings.NewReader("short")))
		}, http.StatusRequestedRangeNotSatisfiable},
		{"body/range mismatch", func() *http.Request {
			r := must(http.NewRequest(http.MethodPut, hs.URL+"/dev", bytes.NewReader(make([]byte, blockdev.SectorSize))))
			r.Header.Set("Content-Range", "bytes 0-1023/*")
			return r
		}, http.StatusBadRequest},
		{"write past end", func() *http.Request {
			r := must(http.NewRequest(http.MethodPut, hs.URL+"/dev", bytes.NewReader(make([]byte, blockdev.SectorSize))))
			r.Header.Set("Content-Range", fmt.Sprintf("bytes %d-%d/*", size, size+blockdev.SectorSize-1))
			return r
		}, http.StatusRequestedRangeNotSatisfiable},
		{"delete method", func() *http.Request {
			return must(http.NewRequest(http.MethodDelete, hs.URL+"/dev", nil))
		}, http.StatusMethodNotAllowed},
		{"flush via GET", func() *http.Request {
			return must(http.NewRequest(http.MethodGet, hs.URL+"/flush", nil))
		}, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		resp, body := do(t, tc.req())
		if resp.StatusCode != tc.want {
			t.Errorf("%s = %d (%s), want %d", tc.name, resp.StatusCode, bytes.TrimSpace(body), tc.want)
		}
	}
}

// TestParseRange pins what the handlers may assume of a parsed range: a
// non-negative offset and a positive length, even where the true length
// does not fit an int64.
func TestParseRange(t *testing.T) {
	cases := []struct {
		spec        string
		off, length int64
		bad         bool
	}{
		{"bytes=512-1535", 512, 1024, false},
		{"bytes=0-0", 0, 1, false},
		{"bytes=0-9223372036854775807", 0, math.MaxInt64, false},
		{"bytes=1-9223372036854775807", 1, math.MaxInt64, false},
		{"bytes=0-9223372036854775808", 0, 0, true},
		{"bytes=5-4", 0, 0, true},
		{"bytes=-5", 0, 0, true},
		{"bytes=5-", 0, 0, true},
		{"bytes=0-511,1024-1535", 0, 0, true},
		{"sectors=0-1", 0, 0, true},
	}
	for _, tc := range cases {
		off, length, err := parseRange(tc.spec)
		if (err != nil) != tc.bad || off != tc.off || length != tc.length {
			t.Errorf("parseRange(%q) = %d, %d, %v; want %d, %d, error %v", tc.spec, off, length, err, tc.off, tc.length, tc.bad)
		}
	}
}

// TestHTTPAfterClose maps a closed server to 503.
func TestHTTPAfterClose(t *testing.T) {
	const pageSize = 1024
	srv, err := serve.New(serve.Config{
		Build: func() (*serve.Stack, error) {
			chip := nand.New(nand.Config{
				Geometry:  nand.Geometry{Blocks: 16, PagesPerBlock: 8, PageSize: pageSize, SpareSize: 32},
				StoreData: true,
			})
			store, err := ftl.New(mtd.New(chip), ftl.Config{LogicalPages: 80})
			if err != nil {
				return nil, err
			}
			bdev, err := blockdev.New(store, pageSize)
			if err != nil {
				return nil, err
			}
			return &serve.Stack{Front: bdev}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(newMux(srv, nil, nil))
	defer hs.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	resp, _ := do(t, must(http.NewRequest(http.MethodGet, hs.URL+"/dev", nil)))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("GET after close = %d, want 503", resp.StatusCode)
	}
}

// failingLeveler always asks to level and always fails.
type failingLeveler struct{ core.LevelerModule }

func (failingLeveler) NeedsLeveling() bool { return true }
func (failingLeveler) Level() error        { return errors.New("device out of space") }

// TestLevelCountsFailures: a failed forced recycle is counted every time and
// logged the first time — never dropped.
func TestLevelCountsFailures(t *testing.T) {
	errs := obs.NewRegistry().Counter("leveler_errors_total")
	var log bytes.Buffer
	for i := 0; i < 3; i++ {
		level(failingLeveler{}, errs, &log)
	}
	if errs.Value() != 3 {
		t.Errorf("leveler_errors_total = %d after 3 failed episodes", errs.Value())
	}
	if n := strings.Count(log.String(), "device out of space"); n != 1 {
		t.Errorf("failure logged %d times, want once:\n%s", n, log.String())
	}
}
