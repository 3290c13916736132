#include "dist/client.hh"

#include <stdexcept>

#include "util/socket.hh"

namespace xbsp::dist
{

SuiteResponse
submitSuite(const std::string& addressSpec,
            const SuiteRequest& request, int timeoutMs)
{
    const int fd = net::connectTo(net::parseAddress(addressSpec));
    SuiteResponse response;
    try {
        if (!sendFrame(fd, frameSuiteRequest(request)))
            throw std::runtime_error("dist: request send failed");
        const std::optional<std::string> reply =
            recvFrame(fd, timeoutMs);
        if (!reply)
            throw std::runtime_error(
                "dist: no response from server");
        serial::Decoder d(*reply);
        if (decodeMsgType(d) != MsgType::SuiteResponse)
            throw serial::DecodeError("expected SuiteResponse");
        response = decodeSuiteResponse(d);
    } catch (const serial::DecodeError& e) {
        net::closeFd(fd);
        throw std::runtime_error(
            std::string("dist: bad response: ") + e.what());
    } catch (...) {
        net::closeFd(fd);
        throw;
    }
    net::closeFd(fd);
    return response;
}

} // namespace xbsp::dist
