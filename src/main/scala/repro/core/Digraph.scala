package repro.core

import java.util.{BitSet => JBitSet}

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
  * Not thread-safe, not even for reads: every search writes the shared
  * scratch.
  */
final class Digraph(val universe: Int) {
  import Digraph.Adj

  private val fwd     = new Array[Adj](universe)
  private val rev     = new Array[Adj](universe)
  private val present = new JBitSet(universe)
  private var edges   = 0

  /** Number of distinct (u, v) edges. */
  def edgeCount: Int = edges

  /** Number of nodes that appear as an endpoint of at least one edge. */
  def nodeCount: Int = present.cardinality()

  /** Nodes present in the graph, ascending. */
  def nodeArray: Array[Int] = present.stream().toArray

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
      present.set(u)
      present.set(v)
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
      if (a.n == 0 && (rev(u) == null || rev(u).n == 0)) present.clear(u)
      if (rev(v).n == 0 && (fwd(v) == null || fwd(v).n == 0)) present.clear(v)
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

  /** The one search: BFS over `adj` from the seeds marked since [[restart]],
    * along edges with expiry ≥ `from`. Leaves the reached nodes, seeds first,
    * in found(0 until n) and returns n. Costs O(nodes reached + edges
    * scanned).
    */
  private def search(adj: Array[Adj], from: Int): Int = {
    var head = 0
    while (head < nFound) {
      val a = adj(found(head))
      head += 1
      if (a != null) {
        var j = 0
        while (j < a.n) {
          if (a.exp(j) >= from) visit(a.to(j))
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

  /** Influence spread of the single seed `v`: spreadOf(Seq(v), from). */
  def spreadOf(v: Int, from: Int): Int = {
    restart()
    seed(v)
    search(fwd, from)
  }
}

object Digraph {

  /** |r \ s|: how many nodes of `r` are not in `s`. */
  def countMissing(r: Array[Int], s: JBitSet): Int = {
    var n = 0
    var i = 0
    while (i < r.length) { if (!s.get(r(i))) n += 1; i += 1 }
    n
  }

  /** s ∪= r, returning |r \ s| before the union: how much `s` grew. */
  def addAll(r: Array[Int], s: JBitSet): Int = {
    var n = 0
    var i = 0
    while (i < r.length) {
      if (!s.get(r(i))) { s.set(r(i)); n += 1 }
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
