#pragma once

#include <variant>

namespace fx_proto {

struct FbuMsg {
  int id = 0;
};
struct AckMsg {
  int id = 0;
};

class Sock {
 public:
  void send(const FbuMsg&) {}
  void send(const AckMsg&) {}
};

// Constructs the request and sends it with no timer anywhere in the
// class: active at the send line.
class BareSender {
 public:
  void kick() {
    FbuMsg m;
    sock_.send(m);
  }

 private:
  Sock sock_;
};

// Same send, and a sibling method arms a timer — but not for this send:
// active.
class SiblingGuardedSender {
 public:
  void kick() {
    FbuMsg m;
    sock_.send(m);
  }
  void on_timeout() { arm(); }
  void arm() {}

 private:
  Sock sock_;
};

// The sending function arms the timer itself: silent.
class GuardedSender {
 public:
  void kick() {
    FbuMsg m;
    sock_.send(m);
    arm();
  }
  void arm() {}

 private:
  Sock sock_;
};

// The sending function calls a function that arms the timer: silent.
class CalleeGuardedSender {
 public:
  void kick() {
    FbuMsg m;
    sock_.send(m);
    start_retry();
  }
  void start_retry() { arm(); }
  void arm() {}

 private:
  Sock sock_;
};

// Responder: names FbuMsg only as a template argument while replying.
// Exempt — the requester's retransmission re-elicits the reply.
class Responder {
 public:
  void handle(std::variant<FbuMsg, AckMsg>& v) {
    if (std::get_if<FbuMsg>(&v)) sock_.send(ack_);
  }

 private:
  Sock sock_;
  AckMsg ack_;
};

// Justified sender: suppressed inline.
class JustifiedSender {
 public:
  void kick() {
    FbuMsg m;
    // best-effort hint, recovered by refresh. NOLINT-FHMIP(PROTO-01)
    sock_.send(m);
  }

 private:
  Sock sock_;
};

}  // namespace fx_proto
