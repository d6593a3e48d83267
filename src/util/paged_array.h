#ifndef UCR_UTIL_PAGED_ARRAY_H_
#define UCR_UTIL_PAGED_ARRAY_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace ucr {

/// Elements per `PagedArray` page and pages per directory, chosen by the
/// sweep in EXPERIMENTS.md P4: small pages make a scattered write clone
/// few bytes, and directories keep a copy at one reference per
/// `kPagedArrayPageSize * kPagedArrayDirSize` elements.
inline constexpr size_t kPagedArrayPageSize = 32;
inline constexpr size_t kPagedArrayDirSize = 32;

/// \brief Copy-on-write array of fixed-size pages, shared between copies.
///
/// Two levels of reference-counted blocks: the array holds directories,
/// a directory holds pages, a page holds elements. Copying the array
/// copies one reference per directory; `Mutable` clones the directory
/// and the page it writes through only while another copy still holds
/// them. A copy followed by k scattered writes therefore costs
/// O(size / (page * dir) + k * (page + dir)) instead of O(size).
///
/// Sharing invariant (DESIGN.md §11): `use_count()` decides whether a
/// block is private, which is sound only if every copy and destruction
/// of arrays sharing a block is ordered with the writer's `Mutable`
/// calls — in practice, all happen on one thread. Concurrent readers of
/// a shared copy may read elements through `operator[]` (the blocks a
/// writer writes are private to it) but must never copy or destroy the
/// array themselves.
template <typename T>
class PagedArray {
 public:
  static constexpr size_t kPageSize = kPagedArrayPageSize;
  static constexpr size_t kDirSize = kPagedArrayDirSize;

  size_t size() const { return size_; }

  const T& operator[](size_t i) const {
    assert(i < size_);
    return dirs_[i / kDirSpan]->pages[i / kPageSize % kDirSize]
        ->items[i % kPageSize];
  }

  /// Writable element `i`; clones its directory and page first if they
  /// are shared.
  T& Mutable(size_t i) {
    assert(i < size_);
    return MutablePage(i).items[i % kPageSize];
  }

  void push_back(const T& value) { Grow(size_ + 1, value); }

  /// Appends copies of `value` until the array holds `n` elements
  /// (no-op if it already holds that many).
  void Grow(size_t n, const T& value) {
    Extend(n > size_ ? n - size_ : 0, [&](T* out, size_t, size_t count) {
      std::fill_n(out, count, value);
    });
  }

  /// Appends `values` in order (a page at a time).
  void Append(std::span<const T> values) {
    Extend(values.size(), [&](T* out, size_t done, size_t count) {
      std::copy_n(values.data() + done, count, out);
    });
  }

  /// `n` copies of `value`, no block shared with any other array.
  void assign(size_t n, const T& value) {
    dirs_.clear();
    size_ = 0;
    Grow(n, value);
  }

 private:
  static constexpr size_t kDirSpan = kPageSize * kDirSize;

  struct Page {
    std::array<T, kPageSize> items{};
  };
  struct Dir {
    std::array<std::shared_ptr<Page>, kDirSize> pages;
  };

  /// Appends `count` elements, handing `write(out, done, n)` each run
  /// of `n` slots that lie in one page (`done` = elements written so
  /// far).
  template <typename Write>
  void Extend(size_t count, Write write) {
    for (size_t done = 0; done < count;) {
      if (size_ % kDirSpan == 0) dirs_.push_back(std::make_shared<Dir>());
      const size_t first = size_ % kPageSize;
      const size_t n = std::min(kPageSize - first, count - done);
      write(MutablePage(size_).items.data() + first, done, n);
      done += n;
      size_ += n;
    }
  }

  /// The page holding element `i`, private to this array: created if
  /// absent, else cloned (with its directory) while shared.
  Page& MutablePage(size_t i) {
    std::shared_ptr<Dir>& dir = dirs_[i / kDirSpan];
    if (dir.use_count() > 1) dir = std::make_shared<Dir>(*dir);
    std::shared_ptr<Page>& page = dir->pages[i / kPageSize % kDirSize];
    if (page == nullptr) {
      page = std::make_shared<Page>();
    } else if (page.use_count() > 1) {
      page = std::make_shared<Page>(*page);
    }
    return *page;
  }

  std::vector<std::shared_ptr<Dir>> dirs_;
  size_t size_ = 0;
};

}  // namespace ucr

#endif  // UCR_UTIL_PAGED_ARRAY_H_
