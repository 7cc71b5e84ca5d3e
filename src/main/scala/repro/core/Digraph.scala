package repro.core

/** Mutable directed graph over a dense integer node universe `[0, universe)`
  * whose edges carry an expiry time.
  *
  * This is the reachability substrate of the influence oracle (Definition 3 in
  * the paper): nodes are interaction endpoints, edges are (deduplicated)
  * influence relations. Multi-edges in the TDN collapse to one adjacency entry
  * here, holding the largest expiry they were added with, because multiplicity
  * does not change reachability — interaction multiplicity only matters for
  * the IC-model baselines ([[repro.ic.IcGraph]]).
  *
  * Expiries let one graph serve many views: a BFS with cutoff `from` skips
  * edges whose expiry is below it. The TDN's single live graph is shared this
  * way by every SieveADN instance of a tracker, each viewing the alive edges
  * with expiry ≥ its own cutoff (see [[SieveAdn]]). Edges added without an
  * expiry never expire.
  *
  * Both forward and reverse adjacency are kept: forward BFS computes influence
  * spread; reverse BFS computes the candidate set V̄_t (nodes whose spread can
  * change when an edge is inserted). Every search reuses one scratch owned by
  * the graph, so a search costs the nodes it reaches and the edges it scans,
  * not the universe. A seed outside the universe is rejected.
  *
  * The graph also keeps which nodes are *sources* (have an out-edge). A
  * present node that is not one is a *sink*: it reaches only itself. CELF
  * uses both to price a query by its sources (see [[CelfGreedy]]).
  *
  * Not thread-safe, not even for reads: every search writes the shared
  * scratch.
  */
final class Digraph(val universe: Int) {
  import Digraph.Adj

  private val fwd     = new Array[Adj](universe)
  private val rev     = new Array[Adj](universe)
  private val present = new Array[Long]((universe + 63) >>> 6) // node sets as bit words, see [[Digraph.has]]
  private val sources = new Array[Long]((universe + 63) >>> 6) // nodes with an out-edge
  private var edges   = 0

  /** Number of distinct (u, v) edges. */
  def edgeCount: Int = edges

  /** Number of nodes that appear as an endpoint of at least one edge. */
  def nodeCount: Int = Digraph.size(present)

  /** Nodes present in the graph, ascending. */
  def nodeArray: Array[Int] = Digraph.members(present)

  /** Nodes with an out-edge, ascending. */
  def sourceArray: Array[Int] = Digraph.members(sources)

  /** The greatest present node ≤ v without out-edges, or −1 if there is none;
    * −1 ≤ v < universe.
    */
  def prevSink(v: Int): Int = {
    if (v < 0) return -1
    var w    = v >>> 6
    var bits = present(w) & ~sources(w) & -1L >>> (63 - (v & 63))
    while (bits == 0L && w > 0) {
      w -= 1
      bits = present(w) & ~sources(w)
    }
    if (bits == 0L) -1 else w << 6 | 63 - java.lang.Long.numberOfLeadingZeros(bits)
  }

  /** Throws IllegalArgumentException unless u and v are in the universe. */
  def checkEdge(u: Int, v: Int): Unit =
    require(u >= 0 && u < universe && v >= 0 && v < universe, s"edge ($u,$v) outside universe $universe")

  /** Expiry of edge u→v, or `Int.MinValue` if there is no such edge. */
  def expiryOf(u: Int, v: Int): Int = {
    val a = fwd(u)
    val i = if (a == null) -1 else a.indexOf(v)
    if (i < 0) Int.MinValue else a.exp(i)
  }

  /** Insert edge u→v expiring at `expiry`, or raise an existing edge's expiry
    * to it; self-loops are ignored.
    *
    * @return true iff the edge was new (changed the reachability structure)
    */
  def addEdge(u: Int, v: Int, expiry: Int = Int.MaxValue): Boolean = {
    checkEdge(u, v)
    if (u == v) return false
    if (fwd(u) == null) fwd(u) = new Adj
    if (rev(v) == null) rev(v) = new Adj
    val i = fwd(u).indexOf(v)
    if (i >= 0) {
      if (expiry > fwd(u).exp(i)) {
        fwd(u).exp(i) = expiry
        rev(v).exp(rev(v).indexOf(u)) = expiry
      }
      false
    } else {
      fwd(u).add(v, expiry)
      rev(v).add(u, expiry)
      Digraph.add(present, u)
      Digraph.add(present, v)
      Digraph.add(sources, u)
      edges += 1
      true
    }
  }

  /** Remove edge u→v if its expiry is at most `now`; an edge whose expiry a
    * later addition raised stays.
    */
  def expire(u: Int, v: Int, now: Int): Unit = {
    val a = fwd(u)
    val i = if (a == null) -1 else a.indexOf(v)
    if (i >= 0 && a.exp(i) <= now) {
      a.remove(i)
      rev(v).remove(rev(v).indexOf(u))
      edges -= 1
      if (a.n == 0) Digraph.remove(sources, u)
      if (a.n == 0 && (rev(u) == null || rev(u).n == 0)) Digraph.remove(present, u)
      if (rev(v).n == 0 && (fwd(v) == null || fwd(v).n == 0)) Digraph.remove(present, v)
    }
  }

  // Search scratch, reused by every search: `seen` holds one bit per node of
  // the universe, and found(0 until nFound) lists the nodes the last search
  // reached, in BFS order, doubling as its queue. Only those nodes' words of
  // `seen` are set, so the next search clears just them.
  private val seen   = new Array[Long]((universe + 63) >>> 6)
  private var found  = new Array[Int](64)
  private var nFound = 0

  /** Mark `v` reached, queueing it, unless it already is. */
  private def visit(v: Int): Unit = {
    val w = v >>> 6
    val b = 1L << v
    if ((seen(w) & b) == 0L) {
      seen(w) |= b
      if (nFound == found.length) found = java.util.Arrays.copyOf(found, 2 * nFound)
      found(nFound) = v
      nFound += 1
    }
  }

  /** Start a search: clear the marks the last one left. */
  private def restart(): Unit = {
    var i = 0
    while (i < nFound) { seen(found(i) >>> 6) = 0L; i += 1 }
    nFound = 0
  }

  private def seed(s: Int): Unit = {
    require(s >= 0 && s < universe, s"seed $s outside universe $universe")
    visit(s)
  }

  /** The one search behind every query: BFS over `adj` from the seeds marked
    * since [[restart]], along edges with expiry ≥ `from`, never entering a
    * node of the word set `stop`. Leaves the reached nodes, seeds first, in
    * found(0 until n) and returns n. Costs O(nodes reached + edges scanned).
    */
  private def search(adj: Array[Adj], from: Int, stop: Array[Long] = Array.emptyLongArray): Int = {
    var head = 0
    while (head < nFound) {
      val a = adj(found(head))
      head += 1
      if (a != null) {
        var j = 0
        while (j < a.n) {
          if (a.exp(j) >= from && !Digraph.has(stop, a.to(j))) visit(a.to(j))
          j += 1
        }
      }
    }
    nFound
  }

  /** Nodes reachable from `v` (v first) over the edges with expiry ≥ `from`. */
  def reachOf(v: Int, from: Int = Int.MinValue): Array[Int] = {
    restart()
    seed(v)
    val n = search(fwd, from) // may grow `found`: read it only afterwards
    java.util.Arrays.copyOf(found, n)
  }

  /** Nodes that can reach some node of `targets` (targets included) over the
    * edges with expiry ≥ `from`, each once, in search order: one search,
    * however many targets.
    */
  def reverseReachOf(targets: IterableOnce[Int], from: Int): Array[Int] = {
    restart()
    targets.iterator.foreach(seed)
    val n = search(rev, from)
    java.util.Arrays.copyOf(found, n)
  }

  /** Influence spread of `seeds` over the edges with expiry ≥ `from`: the
    * size of the union of their [[reachOf]] sets, counted without building
    * it. Not an oracle call by itself: callers that count oracle calls bump
    * their [[OracleCounter]].
    */
  def spreadOf(seeds: IterableOnce[Int], from: Int = Int.MinValue): Int = {
    restart()
    seeds.iterator.foreach(seed)
    search(fwd, from)
  }

  /** f({v}) over every edge. When no successor of v has an out-edge, reach(v)
    * is v and its successors, which the adjacency holds once each and without
    * v itself: their number is counted, not searched.
    */
  def singletonSpread(v: Int): Int = {
    val a = fwd(v)
    if (a == null) return 1
    var j = 0
    while (j < a.n && !Digraph.has(sources, a.to(j))) j += 1
    if (j == a.n) return 1 + a.n
    restart()
    seed(v)
    search(fwd, Int.MinValue)
  }

  /** |reach(v) \ s| over every edge, for a word set `s` spanning the universe
    * that is closed under reach (it holds the reach set of each node it
    * holds) and does not hold v: one search with `s` as its stop set, since
    * by closure every node of reach(v) \ s is reached through nodes outside it.
    */
  def spreadOutside(v: Int, s: Array[Long]): Int = {
    restart()
    seed(v)
    search(fwd, Int.MinValue, s)
  }

  /** s ∪= reach(v), for an `s` as in [[spreadOutside]], returning how much `s`
    * grew.
    */
  def cover(v: Int, s: Array[Long]): Int = {
    val n = spreadOutside(v, s)
    var i = 0
    while (i < n) { s(found(i) >>> 6) |= 1L << found(i); i += 1 }
    n
  }
}

object Digraph {

  // Node sets as bit words: node v is bit v & 63 of s(v >>> 6), and a node
  // past the last word is absent. A graph's node sets and CELF's covered set
  // span the universe; a sieve's reach(S) ends at its highest node's word
  // (see [[fit]]).

  /** Whether node v is in the word set `s`. */
  def has(s: Array[Long], v: Int): Boolean = {
    val w = v >>> 6
    w < s.length && (s(w) & 1L << v) != 0L
  }

  private def add(s: Array[Long], v: Int): Unit    = s(v >>> 6) |= 1L << v
  private def remove(s: Array[Long], v: Int): Unit = s(v >>> 6) &= ~(1L << v)

  /** |s|. */
  private def size(s: Array[Long]): Int = {
    var n = 0
    var w = 0
    while (w < s.length) { n += java.lang.Long.bitCount(s(w)); w += 1 }
    n
  }

  /** The nodes of `s`, ascending. */
  private def members(s: Array[Long]): Array[Int] = {
    val out = new Array[Int](size(s))
    var i   = 0
    var w   = 0
    while (w < s.length) {
      var bits = s(w)
      while (bits != 0L) {
        out(i) = w << 6 | java.lang.Long.numberOfTrailingZeros(bits)
        i += 1
        bits &= bits - 1
      }
      w += 1
    }
    out
  }

  /** `s`, or a copy of it lengthened to exactly the word of r's highest node
    * when `s` ends before that word: the set [[addAll]] can add `r` to.
    */
  def fit(s: Array[Long], r: Array[Int]): Array[Long] = {
    var top = -1
    var i   = 0
    while (i < r.length) { if (r(i) > top) top = r(i); i += 1 }
    val n = (top >> 6) + 1
    if (n > s.length) java.util.Arrays.copyOf(s, n) else s
  }

  /** s ∪= r, for an `s` that holds r's highest node's word, returning
    * |r \ s| before the union: how much `s` grew.
    */
  def addAll(r: Array[Int], s: Array[Long]): Int = {
    var n = 0
    var i = 0
    while (i < r.length) {
      val w = r(i) >>> 6
      val b = 1L << r(i)
      if ((s(w) & b) == 0L) { s(w) |= b; n += 1 }
      i += 1
    }
    n
  }

  /** One node's adjacency: neighbour ids and edge expiries, side by side. */
  private final class Adj {
    var to  = new Array[Int](4)
    var exp = new Array[Int](4)
    var n   = 0

    def indexOf(w: Int): Int = {
      var i = 0
      while (i < n && to(i) != w) i += 1
      if (i < n) i else -1
    }

    def add(w: Int, e: Int): Unit = {
      if (n == to.length) {
        to = java.util.Arrays.copyOf(to, 2 * n)
        exp = java.util.Arrays.copyOf(exp, 2 * n)
      }
      to(n) = w; exp(n) = e; n += 1
    }

    /** Remove entry i, moving the last entry into its place. */
    def remove(i: Int): Unit = {
      n -= 1
      to(i) = to(n); exp(i) = exp(n)
    }
  }
}
