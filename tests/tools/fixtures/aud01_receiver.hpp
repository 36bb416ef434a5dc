#pragma once
// AUD-01 fixture: only a call on this object delegates to an auditing
// method. flush() calls drain() on its queue, which does not audit the
// pipe, so it is reported; settle() calls this->drain() and stays silent.

namespace fix {

class Queue {
 public:
  void drain() {}
};

class Pipe {
 public:
  void drain() { FHMIP_AUDIT("fix", n_ >= 0); }

  void flush() {
    n_ = 0;
    q_.drain();
  }

  void settle() {
    n_ = 0;
    this->drain();
  }

 private:
  Queue q_;
  int n_ = 0;
};

}  // namespace fix
