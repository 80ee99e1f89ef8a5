#include "apps/thttpd.hh"

#include <cstring>
#include <deque>
#include <map>

namespace vg::apps
{

namespace
{

/** Buffered socket line reader (one recv per ~512 bytes, as a real
 *  server buffers, rather than one syscall per byte). */
class LineReader
{
  public:
    LineReader(kern::UserApi &api, int fd) : _api(api), _fd(fd) {}

    bool
    readLine(std::string &line)
    {
        line.clear();
        while (line.size() < 4096) {
            if (_pos == _len) {
                int64_t n = _api.recvHost(_fd, _buf, sizeof(_buf));
                if (n <= 0)
                    return false;
                _pos = 0;
                _len = size_t(n);
            }
            char c = _buf[_pos++];
            if (c == '\n') {
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                return true;
            }
            line.push_back(c);
        }
        return false;
    }

  private:
    kern::UserApi &_api;
    int _fd;
    char _buf[512];
    size_t _pos = 0;
    size_t _len = 0;
};

bool
sendAll(kern::UserApi &api, int fd, const void *data, uint64_t len)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint64_t sent = 0;
    while (sent < len) {
        int64_t n = api.sendHost(fd, p + sent, len - sent);
        if (n <= 0)
            return false;
        sent += uint64_t(n);
    }
    return true;
}

} // namespace

int
thttpd(kern::UserApi &api, const ThttpdConfig &config)
{
    int ls = api.socket();
    if (api.bind(ls, config.port) != 0 || api.listen(ls) != 0)
        return 1;

    uint64_t served = 0;
    while (config.maxRequests == 0 || served < config.maxRequests) {
        int conn = api.accept(ls);
        if (conn < 0)
            break;

        LineReader reader(api, conn);
        std::string request_line;
        if (!reader.readLine(request_line)) {
            api.close(conn);
            continue;
        }
        // Drain headers until the blank line.
        std::string header;
        while (reader.readLine(header) && !header.empty()) {
        }

        std::string path = "/";
        if (request_line.rfind("GET ", 0) == 0) {
            size_t sp = request_line.find(' ', 4);
            path = request_line.substr(4, sp - 4);
        }

        kern::FileStat st;
        if (api.stat(path, st) != 0) {
            const char *resp = "HTTP/1.0 404 Not Found\r\n"
                               "Content-Length: 0\r\n\r\n";
            sendAll(api, conn, resp, std::strlen(resp));
            api.close(conn);
            served++;
            continue;
        }

        std::string hdr = "HTTP/1.0 200 OK\r\nContent-Length: " +
                          std::to_string(st.size) + "\r\n\r\n";
        sendAll(api, conn, hdr.data(), hdr.size());

        int fd = api.open(path);
        // sendfile(): the kernel streams bcache pages onto the NIC
        // ring directly — no mmap staging area to demand-fault, no
        // copy out to user space and back in.
        uint64_t remaining = st.size;
        while (remaining > 0) {
            int64_t n = api.sendfile(conn, fd, remaining);
            if (n <= 0)
                break;
            remaining -= uint64_t(n);
        }
        api.close(fd);
        api.close(conn);
        served++;
    }
    api.close(ls);
    return 0;
}

/** thttpdMulti exits when idle this long with no open connections
 *  (covers clients that die without issuing maxRequests). */
constexpr uint64_t idleTimeoutUs = 200000;

int
thttpdMulti(kern::UserApi &api, const ThttpdMultiConfig &config)
{
    int ls = api.socket();
    if (api.bind(ls, config.port) != 0 || api.listen(ls) != 0)
        return 1;

    /** One connection slot: fd plus the partially-read request. */
    struct Conn
    {
        int fd = -1;
        std::string request;
    };
    std::vector<Conn> slots;
    std::vector<size_t> freeSlots; // LIFO slot free-list
    /** fd -> slot index (ordered so the service order — and hence
     *  every simulated run — is deterministic). */
    std::map<int, size_t> fdSlot;

    uint64_t served = 0;

    auto closeSlot = [&](size_t si) {
        api.close(slots[si].fd);
        fdSlot.erase(slots[si].fd);
        slots[si].fd = -1;
        slots[si].request.clear();
        freeSlots.push_back(si);
    };

    // Serve the complete request buffered in slot @p si, then retire
    // the connection (HTTP/1.0: one request per connection).
    auto serve = [&](size_t si) {
        Conn &c = slots[si];
        std::string path = "/";
        if (c.request.rfind("GET ", 0) == 0) {
            size_t sp = c.request.find(' ', 4);
            path = c.request.substr(4, sp - 4);
        }
        kern::FileStat st;
        if (api.stat(path, st) != 0) {
            const char *resp = "HTTP/1.0 404 Not Found\r\n"
                               "Content-Length: 0\r\n\r\n";
            sendAll(api, c.fd, resp, std::strlen(resp));
        } else {
            std::string hdr = "HTTP/1.0 200 OK\r\nContent-Length: " +
                              std::to_string(st.size) + "\r\n\r\n";
            sendAll(api, c.fd, hdr.data(), hdr.size());
            int fd = api.open(path);
            uint64_t remaining = st.size;
            while (remaining > 0) {
                int64_t n = api.sendfile(c.fd, fd, remaining);
                if (n <= 0)
                    break;
                remaining -= uint64_t(n);
            }
            api.close(fd);
        }
        served++;
        closeSlot(si);
    };

    char buf[2048];
    while (config.maxRequests == 0 || served < config.maxRequests) {
        bool acceptMore = fdSlot.size() < config.maxConcurrent;
        std::vector<int> fds;
        fds.reserve(fdSlot.size() + 1);
        if (acceptMore)
            fds.push_back(ls);
        for (auto &[fd, si] : fdSlot)
            fds.push_back(fd);

        if (api.select(fds, idleTimeoutUs) <= 0) {
            if (fdSlot.empty())
                break; // idle and empty: the clients are gone
            continue;
        }

        // Accept every pending connection a slot is free for. The
        // kernel-side adoption is an O(1) conn-table id lookup; the
        // slot grab is an O(1) free-list pop.
        while (fdSlot.size() < config.maxConcurrent &&
               api.select({ls}, 0) > 0) {
            int conn = api.accept(ls);
            if (conn < 0)
                break;
            size_t si;
            if (!freeSlots.empty()) {
                si = freeSlots.back();
                freeSlots.pop_back();
            } else {
                si = slots.size();
                slots.emplace_back();
            }
            slots[si].fd = conn;
            fdSlot[conn] = si;
        }

        // Service every readable connection: pull what arrived, and
        // once the blank line lands, serve and retire the slot.
        std::vector<size_t> ready;
        ready.reserve(fdSlot.size());
        for (auto &[fd, si] : fdSlot)
            if (api.select({fd}, 0) > 0)
                ready.push_back(si);
        for (size_t si : ready) {
            int64_t n = api.recvHost(slots[si].fd, buf, sizeof(buf));
            if (n <= 0) {
                closeSlot(si); // peer gave up mid-request
                continue;
            }
            slots[si].request.append(buf, size_t(n));
            if (slots[si].request.find("\r\n\r\n") != std::string::npos)
                serve(si);
        }
    }

    while (!fdSlot.empty())
        closeSlot(fdSlot.begin()->second);
    api.close(ls);
    return 0;
}

AbResult
apacheBench(kern::UserApi &api, const std::string &path,
            uint64_t requests, uint16_t port)
{
    AbResult result;
    sim::Stopwatch sw(api.kernel().ctx().clock());

    std::vector<uint8_t> buf(64 * 1024);
    for (uint64_t i = 0; i < requests; i++) {
        uint64_t req_t0 = api.kernel().ctx().clock().now();
        int fd = api.connect(port);
        if (fd < 0) {
            result.failures++;
            continue;
        }
        std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
        if (api.sendHost(fd, req.data(), req.size()) !=
            int64_t(req.size())) {
            result.failures++;
            api.close(fd);
            continue;
        }
        // Read the status line + headers + body until EOF.
        uint64_t got = 0;
        bool headers_done = false;
        std::string head;
        while (true) {
            int64_t n = api.recvHost(fd, buf.data(), buf.size());
            if (n <= 0)
                break;
            if (!headers_done) {
                head.append(reinterpret_cast<char *>(buf.data()),
                            size_t(n));
                size_t hdr_end = head.find("\r\n\r\n");
                if (hdr_end != std::string::npos) {
                    headers_done = true;
                    got += head.size() - hdr_end - 4;
                }
            } else {
                got += uint64_t(n);
            }
        }
        api.close(fd);
        result.requests++;
        result.bytes += got;
        result.requestCycles.push_back(
            api.kernel().ctx().clock().now() - req_t0);
    }
    result.cycles = sw.elapsed();
    return result;
}

AbResult
apacheBenchConcurrent(kern::UserApi &api, const std::string &path,
                      uint64_t requests, unsigned concurrency,
                      uint16_t port)
{
    AbResult result;
    sim::Stopwatch sw(api.kernel().ctx().clock());
    if (concurrency == 0)
        concurrency = 1;

    struct Open
    {
        int fd;
        uint64_t t0;
    };
    std::deque<Open> open;
    uint64_t issued = 0;
    const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";

    // Connect and push the GET; the response is reaped later, so up
    // to @p concurrency requests are in flight at once.
    auto openOne = [&]() {
        uint64_t t0 = api.kernel().ctx().clock().now();
        issued++;
        int fd = api.connect(port);
        if (fd < 0) {
            result.failures++;
            return;
        }
        if (api.sendHost(fd, req.data(), req.size()) !=
            int64_t(req.size())) {
            result.failures++;
            api.close(fd);
            return;
        }
        open.push_back({fd, t0});
    };

    std::vector<uint8_t> buf(64 * 1024);
    while (issued < requests && open.size() < concurrency)
        openOne();

    while (!open.empty()) {
        Open o = open.front();
        open.pop_front();
        uint64_t got = 0;
        bool headers_done = false;
        std::string head;
        while (true) {
            int64_t n = api.recvHost(o.fd, buf.data(), buf.size());
            if (n <= 0)
                break;
            if (!headers_done) {
                head.append(reinterpret_cast<char *>(buf.data()),
                            size_t(n));
                size_t hdr_end = head.find("\r\n\r\n");
                if (hdr_end != std::string::npos) {
                    headers_done = true;
                    got += head.size() - hdr_end - 4;
                }
            } else {
                got += uint64_t(n);
            }
        }
        api.close(o.fd);
        result.requests++;
        result.bytes += got;
        result.requestCycles.push_back(
            api.kernel().ctx().clock().now() - o.t0);
        // Keep the pipe full: replace the retired connection.
        while (issued < requests && open.size() < concurrency)
            openOne();
    }
    result.cycles = sw.elapsed();
    return result;
}

} // namespace vg::apps
