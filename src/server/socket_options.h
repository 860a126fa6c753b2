// The option set on every TCP stream socket the network front end
// creates, accepted by DetectionServer or connected by the UDWIRE/HTTP
// clients (DESIGN.md §16.9).

#pragma once

#include "util/status.h"

namespace unidetect {

/// \brief Turns Nagle's algorithm off (TCP_NODELAY) on a connected TCP
/// socket. Every UDWIRE frame and HTTP message is handed to the kernel
/// whole, so there is nothing for Nagle to coalesce; left on, it holds
/// a small response until the peer ACKs the previous one, and a peer
/// that delays its ACK until its next request stalls each response by
/// one request gap.
Status SetTcpNoDelay(int fd);

}  // namespace unidetect
