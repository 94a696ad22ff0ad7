package repro.core

import scala.collection.mutable

/** The skeleton graph `G_λ` (Section 3.6): vertices are all boundary
  * vertices; an edge connects every boundary pair that co-occurs in some
  * subgraph, weighted by the pair's minimum lower bound distance (MBD).
  *
  * Internally boundary vertices get compact ids so Dijkstra/Yen run on a
  * [[WeightedGraph]]; all public APIs speak global vertex ids. Weights are
  * refreshed in place on index maintenance.
  */
final class SkeletonGraph private (
    val compactOf: Map[Int, Int],
    val globalOf: Array[Int],
    val graph: WeightedGraph,
    edgeOfPair: Map[(Int, Int), Int]) extends Serializable {

  def numVertices: Int = graph.numVertices
  def numEdges: Int = graph.numEdges
  def containsVertex(globalV: Int): Boolean = compactOf.contains(globalV)

  // Seqlock-style write epoch of the index this skeleton belongs to: odd
  // while an update writes, even otherwise. Not serialized.
  @transient @volatile private var writeEpoch: Long = 0L

  /** The current write epoch; a query batch that reads the same even value
    * before and after it ran saw no update.
    */
  def epoch: Long = writeEpoch

  /** Run `write` (an index update, single writer) with the epoch odd. */
  private[repro] def writing[A](write: => A): A = {
    writeEpoch += 1
    try write
    finally writeEpoch += 1
  }

  /** Refresh the MBD weight of existing pairs (global ids, any order). */
  def updateWeights(changes: Iterable[(Int, Int, Double)]): Unit =
    changes.foreach { case (a, b, mbd) =>
      val key = if (a < b) (a, b) else (b, a)
      edgeOfPair.get(key).foreach(e => graph.weights(e) = mbd)
    }

  /** Edge id of the pair `(a, b)` (either order) in [[graph]], or -1. */
  private[core] def edgeId(a: Int, b: Int): Int =
    edgeOfPair.getOrElse(if (a < b) (a, b) else (b, a), -1)

  /** Current weight between two boundary vertices, if the edge exists. */
  def weightOf(a: Int, b: Int): Option[Double] = {
    val key = if (a < b) (a, b) else (b, a)
    edgeOfPair.get(key).map(graph.weights)
  }

  /** A view of `G_λ` with up to two non-boundary query endpoints grafted in
    * (Section 5.3). `attachments` maps each extra global vertex to its LBD
    * edges: (other endpoint — boundary vertex or the other extra vertex —
    * global id, weight).
    *
    * Returns the view plus the translation global → view-vertex-id.
    */
  def augmented(attachments: Seq[(Int, Seq[(Int, Double)])]): (GraphOps, Map[Int, Int], Int => Int) = {
    val extraIds = attachments.map(_._1)
    require(extraIds.forall(v => !containsVertex(v)), "augment only non-boundary vertices")
    val viewIdOf: Map[Int, Int] = compactOf ++ extraIds.zipWithIndex.map { case (v, i) => v -> (graph.numVertices + i) }
    val extraAdj = mutable.HashMap.empty[Int, mutable.ArrayBuffer[(Int, Int)]]
    val extraW = mutable.ArrayBuffer.empty[Double]
    attachments.foreach { case (v, edges) =>
      edges.foreach { case (other, w) =>
        require(viewIdOf.contains(other), s"attachment endpoint $other is neither boundary nor extra")
        val eid = graph.numEdges + extraW.length
        extraW += w
        val (va, vb) = (viewIdOf(v), viewIdOf(other))
        extraAdj.getOrElseUpdate(va, mutable.ArrayBuffer.empty) += ((vb, eid))
        extraAdj.getOrElseUpdate(vb, mutable.ArrayBuffer.empty) += ((va, eid))
      }
    }
    val base = graph
    val view = new GraphOps {
      val numVertices: Int = base.numVertices + extraIds.length
      def foreachNeighbor(v: Int)(f: (Int, Int) => Unit): Unit = {
        if (v < base.numVertices) base.foreachNeighbor(v)(f)
        extraAdj.get(v).foreach(_.foreach { case (u, e) => f(u, e) })
      }
      def edgeWeight(e: Int): Double =
        if (e < base.numEdges) base.weights(e) else extraW(e - base.numEdges)
    }
    val toGlobal: Int => Int =
      vid => if (vid < graph.numVertices) globalOf(vid) else extraIds(vid - graph.numVertices)
    (view, viewIdOf, toGlobal)
  }
}

/** The per-subgraph LBDs behind the skeleton's weights (Section 3.6: a
  * pair's MBD is the minimum LBD over the subgraphs indexing it), as a slot
  * table built once over the skeleton:
  *
  *   - per subgraph, the skeleton edge of each pair slot, slots in the
  *     order of [[SubgraphDtlp.pairOrder]] (ascending `(a, b)`);
  *   - per skeleton edge, its owner slots `(subgraph, slot)`;
  *   - per subgraph, its current LBD array.
  *
  * Both deployments' drivers fold each touched subgraph's new LBD array in
  * after an update; the fold rewrites the touched edges' weights in place.
  * It lives beside the skeleton and the subgraph indexes, not in them, so
  * the serialized index does not carry it.
  */
final class MbdFold private (
    val skeleton: SkeletonGraph,
    edgeOfSlot: Array[Array[Int]],
    lbds: Array[Array[Double]],
    ownerOff: Array[Int],
    ownerSg: Array[Int],
    ownerSlot: Array[Int]) extends Serializable {

  // Edges already refolded in the current call: foldStamp(e) == stamp.
  private val foldStamp = new Array[Int](skeleton.numEdges)
  private var stamp = 0

  /** Record each `(sgId, lbds)` (the subgraph's LBDs in slot order) and set
    * every skeleton edge of those subgraphs to the minimum LBD over its
    * owners. Returns the number of skeleton weights whose bits changed.
    *
    * LBDs are positive and never NaN, and `min` over such values does not
    * depend on their order, so the weights do not depend on the order of
    * `updates` or of the owners.
    */
  def fold(updates: Iterable[(Int, Array[Double])]): Int = {
    updates.foreach { case (sgId, arr) =>
      require(arr.length == edgeOfSlot(sgId).length, s"subgraph $sgId: ${arr.length} LBDs for ${edgeOfSlot(sgId).length} pairs")
      lbds(sgId) = arr
    }
    stamp += 1
    val weights = skeleton.graph.weights
    var changed = 0
    updates.foreach { case (sgId, _) =>
      val edges = edgeOfSlot(sgId)
      var i = 0
      while (i < edges.length) {
        val e = edges(i)
        if (foldStamp(e) != stamp) {
          foldStamp(e) = stamp
          var m = Double.PositiveInfinity
          var o = ownerOff(e)
          while (o < ownerOff(e + 1)) {
            val d = lbds(ownerSg(o))(ownerSlot(o))
            if (d < m) m = d
            o += 1
          }
          if (java.lang.Double.doubleToRawLongBits(m) != java.lang.Double.doubleToRawLongBits(weights(e))) changed += 1
          weights(e) = m
        }
        i += 1
      }
    }
    changed
  }
}

object MbdFold {
  /** Algorithm 1's last step: the skeleton over every subgraph's
    * `(sgId, a, b, LBD)` rows, edges numbered in order of first mention and
    * weighted by their MBDs, and the slot table that keeps it current.
    */
  def build(numSubgraphs: Int, rows: Seq[(Int, Int, Int, Double)]): MbdFold = {
    val skeleton = SkeletonGraph.build(rows.map(r => (r._2, r._3, r._4)))
    val bySg = rows.groupBy(_._1)
    val slotRows = Array.tabulate(numSubgraphs) { sgId =>
      bySg.getOrElse(sgId, Nil).toArray.sortBy(r => (r._2.toLong << 32) | r._3)
    }
    val edgeOfSlot = slotRows.map(_.map(r => skeleton.edgeId(r._2, r._3)))
    val lbds = slotRows.map(_.map(_._4))
    // Owner slots of edge e: ownerSg/ownerSlot(ownerOff(e) until ownerOff(e + 1)).
    val ownerOff = new Array[Int](skeleton.numEdges + 1)
    edgeOfSlot.foreach(_.foreach(e => ownerOff(e + 1) += 1))
    for (e <- 0 until skeleton.numEdges) ownerOff(e + 1) += ownerOff(e)
    val ownerSg = new Array[Int](ownerOff(skeleton.numEdges))
    val ownerSlot = new Array[Int](ownerSg.length)
    val next = ownerOff.clone()
    for (sgId <- edgeOfSlot.indices; slot <- edgeOfSlot(sgId).indices) {
      val e = edgeOfSlot(sgId)(slot)
      ownerSg(next(e)) = sgId
      ownerSlot(next(e)) = slot
      next(e) += 1
    }
    new MbdFold(skeleton, edgeOfSlot, lbds, ownerOff, ownerSg, ownerSlot)
  }
}

object SkeletonGraph {
  /** Build from (a, b, mbd) triples over global boundary vertex ids. */
  def build(pairs: Iterable[(Int, Int, Double)]): SkeletonGraph = {
    val canonical = mutable.LinkedHashMap.empty[(Int, Int), Double]
    pairs.foreach { case (a, b, w) =>
      val key = if (a < b) (a, b) else (b, a)
      canonical.get(key) match {
        case Some(prev) => canonical(key) = math.min(prev, w) // MBD across subgraphs
        case None => canonical(key) = w
      }
    }
    val vertices = canonical.keysIterator.flatMap(k => Iterator(k._1, k._2)).toArray.distinct.sorted
    val compactOf = vertices.zipWithIndex.toMap
    val triples = canonical.toSeq.map { case ((a, b), w) => (compactOf(a), compactOf(b), w) }
    val g = WeightedGraph.fromEdges(vertices.length, triples)
    val edgeOfPair = canonical.keysIterator.zipWithIndex.map { case (k, i) => k -> i }.toMap
    new SkeletonGraph(compactOf, vertices, g, edgeOfPair)
  }
}
