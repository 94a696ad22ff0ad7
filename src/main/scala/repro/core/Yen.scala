package repro.core

import scala.collection.mutable

/** Yen's k-shortest-loopless-paths algorithm [Yen 1971].
  *
  * Implemented as a lazy generator: [[YenIterator.next]] produces the next
  * shortest simple path on demand, which KSP-DG needs both for reference
  * paths on the skeleton graph (one more per iteration, Section 5.2) and for
  * the termination test (peek at the `(i+1)`-th path's distance, Theorem 3).
  *
  * @param g               graph to search
  * @param s               source vertex
  * @param t               target vertex
  * @param interiorAllowed predicate on vertices allowed strictly between `s`
  *                        and `t`; used by the refine step to forbid boundary
  *                        vertices in segment interiors
  * @param weightOf        edge id → weight; defaults to current real weights
  */
final class YenIterator(
    g: GraphOps,
    s: Int,
    t: Int,
    interiorAllowed: Int => Boolean = _ => true,
    weightOf: Int => Double = null) {

  private val accepted = mutable.ArrayBuffer.empty[Path]
  // Candidate pool ordered by distance; dedup by vertex sequence.
  private val candidates =
    mutable.PriorityQueue.empty[Path](Ordering.by[Path, Double](_.distance).reverse)
  private val seen = mutable.HashSet.empty[Vector[Int]]
  // Lawler's optimization: a path deviating from its parent at index d only
  // needs spur searches at indices >= d.
  private val deviationIndexOf = mutable.HashMap.empty[Vector[Int], Int]
  private var exhausted = false
  // Whether the spurs of the most recently accepted path were generated.
  private var lastSpurred = false

  private val w: Int => Double = if (weightOf == null) g.edgeWeight else weightOf

  // A* heuristic for every spur search: exact distances to `t` ignoring
  // bans — consistent and admissible, so results stay exact. One Dijkstra
  // per iterator; pays for itself from the first spur round.
  private lazy val hToT: Array[Double] = Dijkstra.run(g, t, weightOf = weightOf).dist
  private lazy val spurSearch = new Dijkstra.Search(g)

  // Root bans of the current spur round: `v` is banned iff
  // `rootStamp(v) == round`, so no set is built per spur.
  private val rootStamp = new Array[Int](g.numVertices)
  private var round = 0

  private def bannedInterior(v: Int): Boolean = v != s && v != t && !interiorAllowed(v)

  /** Distance of the next path without consuming it, if one exists. */
  def peekDistance(): Option[Double] = {
    ensureCandidate()
    candidates.headOption.map(_.distance)
  }

  /** Produce the next shortest simple path, or None when no more exist. */
  def next(): Option[Path] = {
    ensureCandidate()
    if (candidates.isEmpty) None
    else {
      val p = candidates.dequeue()
      accepted += p
      lastSpurred = false
      Some(p)
    }
  }

  /** Make sure the candidate heap holds the true next path: the first
    * shortest path, then the spurs of the most recently accepted path
    * (Yen requires generating them before the next pop).
    */
  private def ensureCandidate(): Unit = {
    if (accepted.isEmpty) {
      if (candidates.isEmpty && !exhausted)
        Dijkstra.shortestPath(g, s, t, bannedVertex = bannedInterior, weightOf = weightOf) match {
          case Some(p) if seen.add(p.vertices) =>
            deviationIndexOf(p.vertices) = 0
            candidates.enqueue(p)
          case _ => exhausted = true
        }
    } else if (!lastSpurred) generateSpurs(accepted.last)
  }

  private def generateSpurs(prev: Path): Unit = {
    lastSpurred = true
    val pv = prev.vertices
    val pe = prev.edgeIds
    val d0 = deviationIndexOf.getOrElse(pv, 0)
    if (d0 >= pv.length - 1) return
    val h = hToT
    round += 1
    // Root pv(0..i-1): banned, and priced edge by edge in path order (the
    // same left-to-right sum as pricing the root afresh).
    var rootDist = 0.0
    var j = 0
    while (j < d0) {
      rootStamp(pv(j)) = round
      rootDist += w(pe(j))
      j += 1
    }
    // Indices into `accepted` of the paths sharing pv(0..i-1); narrowed as
    // the root grows.
    val sharing = new Array[Int](accepted.size)
    var nSharing = 0
    var a = 0
    while (a < accepted.size) {
      if (sharesPrefix(accepted(a).vertices, pv, d0)) { sharing(nSharing) = a; nSharing += 1 }
      a += 1
    }
    val bannedEdges = new Array[Int](accepted.size)
    var i = d0
    while (i < pv.length - 1) {
      val spurNode = pv(i)
      // Ban the next edge of every accepted path sharing the root pv(0..i).
      var kept = 0
      var nBanned = 0
      var q = 0
      while (q < nSharing) {
        val p = accepted(sharing(q))
        if (p.vertices.length > i + 1 && p.vertices(i) == spurNode) {
          sharing(kept) = sharing(q); kept += 1
          val e = p.edgeIds(i)
          if (!contains(bannedEdges, nBanned, e)) { bannedEdges(nBanned) = e; nBanned += 1 }
        }
        q += 1
      }
      nSharing = kept
      val banned = nBanned
      val res = spurSearch.run(
        spurNode, t,
        bannedVertex = v => rootStamp(v) == round || bannedInterior(v),
        bannedEdge = e => contains(bannedEdges, banned, e),
        w = w,
        heuristic = h(_),
        noTransit = _ => false)
      if (!res.dist(t).isInfinite) {
        val full = joinRoot(pv, pe, i, res, rootDist + res.dist(t))
        if (full.isSimple && seen.add(full.vertices)) {
          deviationIndexOf(full.vertices) = i
          candidates.enqueue(full)
        }
      }
      rootStamp(spurNode) = round
      rootDist += w(pe(i))
      i += 1
    }
  }

  /** The root pv(0..i-1) followed by the spur search's path to `t`. */
  private def joinRoot(pv: Vector[Int], pe: Vector[Int], i: Int, spur: Dijkstra.Result, distance: Double): Path = {
    var spurLen = 0
    var v = t
    while (v >= 0) { spurLen += 1; v = spur.parentVertex(v) }
    val vs = new Array[Int](i + spurLen)
    val es = new Array[Int](i + spurLen - 1)
    var j = 0
    while (j < i) { vs(j) = pv(j); es(j) = pe(j); j += 1 }
    v = t
    j = vs.length - 1
    while (j >= i) {
      vs(j) = v
      if (j > i) es(j - 1) = spur.parentEdge(v)
      v = spur.parentVertex(v)
      j -= 1
    }
    Path(vs.toVector, es.toVector, distance)
  }

  private def sharesPrefix(p: Vector[Int], pv: Vector[Int], len: Int): Boolean = {
    if (p.length < len) return false
    var j = 0
    while (j < len && p(j) == pv(j)) j += 1
    j == len
  }

  private def contains(xs: Array[Int], n: Int, x: Int): Boolean = {
    var j = 0
    while (j < n && xs(j) != x) j += 1
    j < n
  }
}

object Yen {
  /** The k shortest simple paths from `s` to `t` (fewer if fewer exist). */
  def ksp(
      g: GraphOps,
      s: Int,
      t: Int,
      k: Int,
      interiorAllowed: Int => Boolean = _ => true,
      weightOf: Int => Double = null): Seq[Path] = {
    if (s == t) return Seq(Path(Vector(s), Vector.empty, 0.0))
    val it = new YenIterator(g, s, t, interiorAllowed, weightOf)
    val out = Seq.newBuilder[Path]
    var i = 0
    var done = false
    while (i < k && !done) {
      it.next() match {
        case Some(p) => out += p; i += 1
        case None => done = true
      }
    }
    out.result()
  }
}
