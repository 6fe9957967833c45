#pragma once
// SharedList<T>: an immutable vector whose copies share one allocation.
// Built once from a std::vector and never mutated — an edit builds a new
// list — so a copy is a reference-count increment, and a pointer to an
// element stays valid for as long as any copy of the list lives. Equality
// checks identity first, then compares element by element.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace rpslyzer::util {

template <typename T>
class SharedList {
 public:
  using value_type = T;
  using const_iterator = typename std::vector<T>::const_iterator;

  SharedList() = default;
  /// An empty vector allocates nothing: every empty list holds null.
  explicit SharedList(std::vector<T> items)
      : items_(items.empty() ? nullptr
                             : std::make_shared<const std::vector<T>>(std::move(items))) {}

  // An empty list's iterators are value-initialized, which compare equal.
  const_iterator begin() const noexcept { return items_ ? items_->begin() : const_iterator(); }
  const_iterator end() const noexcept { return items_ ? items_->end() : const_iterator(); }
  std::size_t size() const noexcept { return items_ ? items_->size() : 0; }
  bool empty() const noexcept { return items_ == nullptr; }
  const T& operator[](std::size_t i) const noexcept { return (*items_)[i]; }
  const T& front() const noexcept { return items_->front(); }

  /// Do both lists hold the same storage? Empty lists share.
  bool shares(const SharedList& other) const noexcept { return items_ == other.items_; }

  friend bool operator==(const SharedList& a, const SharedList& b) {
    return a.shares(b) || std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::shared_ptr<const std::vector<T>> items_;
};

}  // namespace rpslyzer::util
