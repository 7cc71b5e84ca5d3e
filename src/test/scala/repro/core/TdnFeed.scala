package repro.core

import repro.tdn.{Tdn, TimedEdge}

/** SieveADN instances over one TDN's live graph, driven the way
  * [[InstanceListTracker]] drives its own: [[add]] checks a batch with
  * [[Tdn.check]], adds it with [[SieveAdn.addTo]] and feeds its arrivals to
  * each instance given, which takes those it sees. The clock stays at 0, so
  * an edge's lifetime is its expiry.
  *
  * An addition-only network (ADN, Example 3) is a TDN whose lifetimes outlast
  * the horizon: edges added with lifetime [[TdnFeed.Forever]] never expire,
  * and an instance at the default cutoff 1 sees each added pair once, when
  * it first arrives.
  */
final class TdnFeed(universe: Int) {
  val tdn   = new Tdn
  val graph = tdn.toDigraph(universe)

  /** A new SieveADN over the graph, with its own size table. */
  def sieve(k: Int, eps: Double, cutoff: Int = 1, counter: OracleCounter = new OracleCounter): SieveAdn =
    new SieveAdn(k, eps, counter, graph, cutoff, new SieveAdn.SizeTable(k, eps))

  /** Add `pairs` with `lifetime` and feed the arrivals to each of `insts`; a
    * batch that fails the TDN's check changes nothing.
    */
  def add(pairs: Seq[(Int, Int)], lifetime: Int, insts: SieveAdn*): Unit = {
    val edges = pairs.map { case (u, v) => TimedEdge(u, v, lifetime) }.toArray
    tdn.check(edges)
    val arrivals = SieveAdn.addTo(tdn, graph, edges, 0, edges.length)
    insts.foreach(_.feed(arrivals))
  }
}

object TdnFeed {

  /** The lifetime of an ADN edge added at clock 0: it expires at
    * Int.MaxValue, past every horizon.
    */
  val Forever: Int = Int.MaxValue
}
