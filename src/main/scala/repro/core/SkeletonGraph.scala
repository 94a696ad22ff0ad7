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

/** The per-pair, per-subgraph LBDs behind the skeleton's weights (Section
  * 3.6: a pair's MBD is the minimum LBD over the subgraphs indexing it).
  * Both deployments' drivers fold in the LBD rows their subgraph indexes
  * return, at build and after each update batch. It lives beside the
  * skeleton and the subgraph indexes, not in them, so the serialized index
  * does not carry it.
  */
final class MbdFold extends Serializable {
  private val lbdOf = mutable.HashMap.empty[(Int, Int), mutable.HashMap[Int, Double]]

  /** Record `(sgId, a, b, lbd)` rows (`a < b`) and return `(a, b, MBD)` for
    * every pair they name, in order of first mention.
    */
  def fold(rows: Iterable[(Int, Int, Int, Double)]): Seq[(Int, Int, Double)] = {
    val named = mutable.LinkedHashSet.empty[(Int, Int)]
    rows.foreach { case (sgId, a, b, lbd) =>
      lbdOf.getOrElseUpdate((a, b), mutable.HashMap.empty)(sgId) = lbd
      named += ((a, b))
    }
    named.iterator.map { case (a, b) => (a, b, lbdOf((a, b)).valuesIterator.min) }.toSeq
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
